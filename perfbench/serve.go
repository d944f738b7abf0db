package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"uvmsim"
	"uvmsim/internal/serve"
)

// serveReq is one single-cell job of the serve workload's stream.
type serveReq struct {
	workload string
	pct      uint64
	policy   uvmsim.MigrationPolicy
	seed     uint64
}

// key identifies the cell a request asks for.
func (r serveReq) key() string {
	return fmt.Sprintf("%s/%d/%s/%d", r.workload, r.pct, r.policy, r.seed)
}

// Serve stream shape: exactly hotShare of the requests repeat a small
// hot set (the Fig. 6 Disabled/Adaptive pairs at 125%, policy seed 0).
// The rest are cold: spread evenly over the workloads, each workload's
// cold requests drawn without replacement from oversubscription x
// policy x policy seeds 1..coldSeeds. Policy seeds are part of the cache
// key, so every cold request misses. The balance keeps the amount of
// simulation a stream asks for nearly the same for every seed, so the
// seed changes which cells run and in what order, not how much work.
const (
	hotShare  = 0.70
	coldSeeds = 16
)

var coldPcts = []uint64{100, 125, 150}

// hotSet returns the hot cells in a fixed order.
func hotSet() []serveReq {
	var hot []serveReq
	for _, w := range uvmsim.Workloads() {
		for _, pol := range []uvmsim.MigrationPolicy{uvmsim.PolicyDisabled, uvmsim.PolicyAdaptive} {
			hot = append(hot, serveReq{workload: w, pct: 125, policy: pol})
		}
	}
	return hot
}

// serveStream generates n requests from seed. The same seed always
// gives the same stream; the server only ever sees the generated jobs.
func serveStream(seed uint64, n int) []serveReq {
	rng := rand.New(rand.NewPCG(seed, 0x5e7e))
	hot := hotSet()
	names := uvmsim.Workloads()
	pols := uvmsim.Policies()
	nHot := int(math.Round(hotShare * float64(n)))
	isHot := make([]bool, n)
	for i := range nHot {
		isHot[i] = true
	}
	rng.Shuffle(n, func(i, j int) { isHot[i], isHot[j] = isHot[j], isHot[i] })
	coldOrder := make([]string, n-nHot)
	for j := range coldOrder {
		coldOrder[j] = names[j%len(names)]
	}
	rng.Shuffle(len(coldOrder), func(i, j int) { coldOrder[i], coldOrder[j] = coldOrder[j], coldOrder[i] })
	// Each workload walks its own random permutation of the cold space,
	// starting over only if a stream is longer than the space.
	space := len(coldPcts) * len(pols) * coldSeeds
	perm := map[string][]int{}
	out := make([]serveReq, n)
	for i, cold := 0, 0; i < n; i++ {
		if isHot[i] {
			out[i] = hot[rng.IntN(len(hot))]
			continue
		}
		w := coldOrder[cold]
		cold++
		if len(perm[w]) == 0 {
			perm[w] = rng.Perm(space)
		}
		k := perm[w][0]
		perm[w] = perm[w][1:]
		out[i] = serveReq{
			workload: w,
			pct:      coldPcts[k%len(coldPcts)],
			policy:   pols[k/len(coldPcts)%len(pols)],
			seed:     uint64(1 + k/(len(coldPcts)*len(pols))),
		}
	}
	return out
}

// serveWorkload drives an in-process simd server over loopback HTTP
// with closed-loop clients: each client sends its next job only after
// the previous one's result has arrived. Every iteration (round) starts
// a fresh server, so each round sees a cold cache and the same stream.
type serveWorkload struct {
	seed     uint64
	scale    float64
	requests int
	clients  int
	workers  int
	stream   []serveReq
	// first holds the first payload returned for each cell, across
	// every round of the run; repeats must match it byte for byte.
	first map[string][]byte
}

// simd is one running in-process server.
type simd struct {
	url    string
	hs     *http.Server
	done   chan error
	client *serve.Client
}

// startSimd starts a server on a loopback port and waits until it
// answers its health check.
func startSimd(workers int) (*simd, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listening: %w", err)
	}
	s := &simd{
		url:  "http://" + ln.Addr().String(),
		hs:   &http.Server{Handler: serve.NewServer(serve.Options{Workers: workers}).Handler()},
		done: make(chan error, 1),
	}
	go func() { s.done <- s.hs.Serve(ln) }()
	s.client = &serve.Client{BaseURL: s.url, HTTPClient: &http.Client{
		Transport: &http.Transport{MaxIdleConnsPerHost: 16},
		Timeout:   2 * time.Minute,
	}}
	resp, err := s.client.HTTPClient.Get(s.url + "/healthz")
	if err == nil {
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("health check: %s", resp.Status)
		}
	}
	if err != nil {
		s.stop()
		return nil, err
	}
	return s, nil
}

// stop shuts the server down and waits for its serve loop to exit.
func (s *simd) stop() {
	s.client.HTTPClient.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.hs.Shutdown(ctx); err != nil {
		s.hs.Close()
	}
	if err := <-s.done; err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintf(os.Stderr, "simd: %v\n", err)
	}
}

// setup generates the request stream and starts and stops a server.
func (w *serveWorkload) setup(*tracer) error {
	w.stream = serveStream(w.seed, w.requests)
	s, err := startSimd(w.workers)
	if err != nil {
		return err
	}
	s.stop()
	return nil
}

func (w *serveWorkload) buildInputs(tr *tracer) ([]*uvmsim.Workload, error) {
	return buildAll(uvmsim.Workloads(), w.scale, tr)
}

// reqResult is the outcome of one request.
type reqResult struct {
	err     error
	total   float64
	submit  float64
	hit     bool
	payload []byte
}

// do sends request k and waits for its result: submit, follow the
// progress stream to the terminal status, fetch the payload.
func (w *serveWorkload) do(c *serve.Client, k int, tr *tracer) reqResult {
	r := w.stream[k]
	job := serve.JobRequest{
		Scale:           w.scale,
		Workloads:       []string{r.workload},
		OversubPercents: []uint64{r.pct},
		Policies:        []string{strings.ToLower(r.policy.String())},
		Seeds:           []uint64{r.seed},
	}
	root := tr.begin("request", 0)
	defer tr.end(root)
	t0 := time.Now()
	id := tr.begin("submit", root)
	st, err := c.Submit(job)
	submit := time.Since(t0).Seconds()
	tr.end(id)
	if err != nil {
		return reqResult{err: fmt.Errorf("submit %s: %w", r.key(), err)}
	}
	id = tr.begin("wait", root)
	st, err = c.Wait(st.ID, nil)
	tr.end(id)
	if err == nil && st.State != serve.StateDone {
		err = fmt.Errorf("job %s %s: %s", st.ID, st.State, st.Error)
	}
	if err != nil {
		return reqResult{err: fmt.Errorf("wait %s: %w", r.key(), err)}
	}
	id = tr.begin("result", root)
	payload, err := c.Result(st.ID)
	tr.end(id)
	if err != nil {
		return reqResult{err: fmt.Errorf("result %s: %w", r.key(), err)}
	}
	return reqResult{total: time.Since(t0).Seconds(), submit: submit, hit: st.CacheHits == 1, payload: payload}
}

func (w *serveWorkload) run(tr *tracer) *pass {
	p := &pass{payloads: map[string][32]byte{}}
	s, err := startSimd(w.workers)
	if err != nil {
		p.failed = len(w.stream)
		p.ops = make([]float64, len(w.stream))
		p.errs = append(p.errs, "starting simd: "+err.Error())
		return p
	}
	results := make([]reqResult, len(w.stream))
	var next atomic.Int64
	var wg sync.WaitGroup
	t0 := time.Now()
	for i := 0; i < w.clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				k := int(next.Add(1)) - 1
				if k >= len(results) {
					return
				}
				results[k] = w.do(s.client, k, tr)
			}
		}()
	}
	wg.Wait()
	p.wall = time.Since(t0).Seconds()
	s.stop()

	for k, res := range results {
		p.ops = append(p.ops, res.total)
		if res.err != nil {
			p.failed++
			p.errs = append(p.errs, res.err.Error())
			continue
		}
		p.submit = append(p.submit, res.submit)
		key := w.stream[k].key()
		if prev, ok := w.first[key]; !ok {
			w.first[key] = res.payload
		} else if !bytes.Equal(prev, res.payload) {
			p.errs = append(p.errs, fmt.Sprintf("cell %s: payload differs from its first computation", key))
		}
		p.payloads[key] = sha256.Sum256(res.payload)
		if res.hit {
			p.hit = append(p.hit, res.total)
			continue
		}
		p.miss = append(p.miss, res.total)
		c, err := decodeCell(res.payload)
		if err != nil {
			p.errs = append(p.errs, fmt.Sprintf("cell %s: %v", key, err))
			continue
		}
		p.cells = append(p.cells, c)
	}
	return p
}

// decodeCell reads the single cell of a job's result payload.
func decodeCell(payload []byte) (cell, error) {
	doc, err := serve.DecodeResult(payload)
	if err != nil {
		return cell{}, err
	}
	if len(doc.Cells) != 1 {
		return cell{}, fmt.Errorf("payload has %d cells, want 1", len(doc.Cells))
	}
	rec := doc.Cells[0].Record
	return cell{
		bench:  rec.Workload,
		policy: rec.Config.Policy,
		c:      rec.Counters,
		detail: fmt.Sprintf("%s/%s %+v", rec.Workload, rec.Config.Policy, rec.Counters),
	}, nil
}

// verify checks that every request was answered and returns the hot
// Disabled/Adaptive pairs for the Adaptive-vs-Disabled comparison.
func (w *serveWorkload) verify(p *pass) ([]cell, []string) {
	var ref []cell
	var errs []string
	if p.failed > 0 {
		errs = append(errs, fmt.Sprintf("%d of %d requests failed", p.failed, len(p.ops)))
	}
	for _, r := range hotSet() {
		payload, ok := w.first[r.key()]
		if _, inPass := p.payloads[r.key()]; !ok || !inPass {
			errs = append(errs, fmt.Sprintf("hot cell %s was never requested", r.key()))
			continue
		}
		c, err := decodeCell(payload)
		if err != nil {
			errs = append(errs, fmt.Sprintf("hot cell %s: %v", r.key(), err))
			continue
		}
		ref = append(ref, c)
	}
	return ref, errs
}

// payloadDigest hashes the distinct cells a serve pass returned. Which
// requests hit the cache depends on timing; the set of cells and their
// payloads does not.
func payloadDigest(payloads map[string][32]byte) string {
	keys := make([]string, 0, len(payloads))
	for k := range payloads {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	h := sha256.New()
	for _, k := range keys {
		fmt.Fprintf(h, "%s %x\n", k, payloads[k])
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
