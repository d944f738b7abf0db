package experiments

import (
	"bytes"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"uvmsim/internal/config"
	"uvmsim/internal/serve"
)

// newClient starts an in-process simd server and returns a client for
// it; the server is closed when the test ends.
func newClient(t *testing.T) *serve.Client {
	t.Helper()
	ts := httptest.NewServer(serve.NewServer(serve.Options{Workers: 4}).Handler())
	t.Cleanup(ts.Close)
	return &serve.Client{BaseURL: ts.URL, HTTPClient: ts.Client()}
}

func runJob(t *testing.T, req serve.JobRequest) (*serve.ResultDoc, serve.JobStatus) {
	t.Helper()
	st, payload, err := newClient(t).RunJob(req, nil)
	if err != nil {
		t.Fatal(err)
	}
	doc, err := serve.DecodeResult(payload)
	if err != nil {
		t.Fatal(err)
	}
	return doc, st
}

// thrashGuardBase is the default configuration with the thrash-guard
// planner selected: a non-default mm pipeline a job's base must carry
// into every cell.
func thrashGuardBase() config.Config {
	b := config.Default()
	b.MMPipeline.Planner = "thrash-guard"
	return b
}

// The Fig6 job must simulate exactly the cells the in-process Fig6And7
// sweep does: the summed simulated cycles across the job's cells must
// equal the sweep's deterministic cycle total. The planners tie at
// scale 0.1 and below, so a job that drops its base's pipeline shows
// only at a larger scale.
func TestFig6JobMatchesInProcessSweep(t *testing.T) {
	for _, tc := range []struct {
		name string
		o    Options
	}{
		{"default-scale0.05", Options{Scale: 0.05, Workloads: []string{"bfs", "ra"}}},
		{"thrash-guard-scale0.2", Options{Scale: 0.2, Workloads: []string{"bfs", "ra"}, Base: thrashGuardBase()}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, _, want := Fig6And7Cycles(tc.o)

			req, err := FigureJob("fig6", tc.o)
			if err != nil {
				t.Fatal(err)
			}
			doc, st := runJob(t, req)
			if st.TotalCells != 8 {
				t.Fatalf("fig6 job expanded to %d cells, want 2 workloads x 4 policies", st.TotalCells)
			}
			var got uint64
			for _, cell := range doc.Cells {
				got += cell.Record.Counters.Cycles
			}
			if got != want {
				t.Fatalf("job cycles %d != in-process sweep cycles %d", got, want)
			}
		})
	}
}

// Every mapped figure must expand to the sweep shape its FigN function
// simulates.
func TestFigureJobShapes(t *testing.T) {
	o := Options{Scale: 0.05, Workloads: []string{"bfs"}}
	cells := map[string]int{
		"fig1": 3, // 3 oversubscription points
		"fig4": 3, // 3 thresholds
		"fig5": 3, // 3 policies
		"fig6": 4, // 4 policies
		"fig7": 4,
		"fig8": 1 + len(Fig8Penalties),
	}
	for _, fig := range FigureNames() {
		req, err := FigureJob(fig, o)
		if err != nil {
			t.Fatalf("%s: %v", fig, err)
		}
		_, st := runJob(t, req)
		if st.State != serve.StateDone {
			t.Fatalf("%s: job ended %s: %s", fig, st.State, st.Error)
		}
		if st.TotalCells != cells[fig] {
			t.Errorf("%s: %d cells, want %d", fig, st.TotalCells, cells[fig])
		}
	}

	if _, err := FigureJob("fig2", o); err == nil {
		t.Error("fig2 (trace characterization) should have no job mapping")
	}
}

// A warm pass over a mixed job set must be served entirely from the
// cache: a cold pass simulates three figure sweeps and a fig6 sweep
// under the thrash-guard planner, then two concurrent clients resubmit
// every job. The warm pass adds no cache misses or entries, returns
// byte-identical payloads, and pushes cells at least 10x faster than
// the cold pass.
func TestWarmJobSetIsFullyCached(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	opt := Options{Scale: 0.05, Workloads: []string{"bfs"}}
	guarded := opt
	guarded.Base = thrashGuardBase()
	var jobs []serve.JobRequest
	for _, j := range []struct {
		fig string
		o   Options
	}{{"fig1", opt}, {"fig5", opt}, {"fig6", opt}, {"fig6", guarded}} {
		req, err := FigureJob(j.fig, j.o)
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, req)
	}
	c := newClient(t)

	// pass runs every (client, job) pair concurrently and returns the
	// elapsed time, the cells completed and the payloads, client-major.
	pass := func(clients int) (time.Duration, int, [][]byte) {
		payloads := make([][]byte, clients*len(jobs))
		var (
			mu    sync.Mutex
			wg    sync.WaitGroup
			cells int
		)
		start := time.Now()
		for cl := 0; cl < clients; cl++ {
			for j := range jobs {
				wg.Add(1)
				go func() {
					defer wg.Done()
					st, payload, err := c.RunJob(jobs[j], nil)
					if err != nil {
						t.Errorf("client %d job %d: %v", cl, j, err)
						return
					}
					payloads[cl*len(jobs)+j] = payload
					mu.Lock()
					defer mu.Unlock()
					cells += st.TotalCells
				}()
			}
		}
		wg.Wait()
		return time.Since(start), cells, payloads
	}

	coldElapsed, coldCells, coldPayloads := pass(1)
	if t.Failed() {
		t.FailNow()
	}
	coldStats, err := c.CacheStats()
	if err != nil {
		t.Fatal(err)
	}
	warmElapsed, warmCells, warmPayloads := pass(2)
	if t.Failed() {
		t.FailNow()
	}
	warmStats, err := c.CacheStats()
	if err != nil {
		t.Fatal(err)
	}
	// Jobs in the set share cells (fig1's fitting baseline is also
	// fig5's), so the cold pass records fewer misses than cells; the
	// warm pass must add none.
	if warmStats.Misses != coldStats.Misses || warmStats.Entries != coldStats.Entries {
		t.Fatalf("warm pass was not fully cached: misses %d -> %d, entries %d -> %d",
			coldStats.Misses, warmStats.Misses, coldStats.Entries, warmStats.Entries)
	}
	for i, p := range warmPayloads {
		if !bytes.Equal(p, coldPayloads[i%len(jobs)]) {
			t.Fatalf("client %d job %d: warm payload differs from cold payload", i/len(jobs), i%len(jobs))
		}
	}
	coldRate := float64(coldCells) / coldElapsed.Seconds()
	warmRate := float64(warmCells) / warmElapsed.Seconds()
	if warmRate < 10*coldRate {
		t.Fatalf("warm %.0f cells/s is not 10x cold %.1f cells/s: the cache is not doing its job", warmRate, coldRate)
	}
}
