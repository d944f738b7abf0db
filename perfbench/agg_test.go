package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"testing"

	"uvmsim"
)

func TestPercentileReportsSampleCount(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // descending: percentile must sort a copy
	}
	for _, tc := range []struct {
		p      float64
		want   float64
		beyond int
	}{{50, 50, 50}, {99, 99, 1}, {100, 100, 0}, {0.5, 1, 99}} {
		got, err := percentile(xs, tc.p)
		if err != nil {
			t.Fatal(err)
		}
		if got != (pct{Value: tc.want, N: 100, Beyond: tc.beyond}) {
			t.Errorf("p%v = %+v, want value %v, n 100, beyond %d", tc.p, got, tc.want, tc.beyond)
		}
	}
	if xs[0] != 100 {
		t.Errorf("percentile modified its input")
	}
	// Ten samples: p99 is the maximum and nothing lies beyond it.
	got, err := percentile([]float64{3, 1, 2, 5, 4, 9, 8, 7, 6, 10}, 99)
	if err != nil || got != (pct{Value: 10, N: 10, Beyond: 0}) {
		t.Errorf("p99 of 10 = %+v, %v", got, err)
	}
	if _, err := percentile(nil, 50); err == nil {
		t.Errorf("empty sample: want error")
	}
	for _, p := range []float64{0, -1, 101} {
		if _, err := percentile(xs, p); err == nil {
			t.Errorf("p%v: want error", p)
		}
	}
}

func TestMedian(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want float64
	}{{[]float64{3}, 3}, {[]float64{4, 1, 3}, 3}, {[]float64{4, 1, 3, 2}, 2.5}} {
		if got, err := median(tc.xs); err != nil || got != tc.want {
			t.Errorf("median(%v) = %v, %v; want %v", tc.xs, got, err, tc.want)
		}
	}
	if _, err := median(nil); err == nil {
		t.Errorf("empty sample: want error")
	}
}

func TestGeomean(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want float64
	}{{[]float64{5}, 5}, {[]float64{1, 4}, 2}, {[]float64{2, 8, 4}, 4}, {[]float64{0.5, 2}, 1}} {
		got, err := geomean(tc.xs)
		if err != nil || math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("geomean(%v) = %v, %v; want %v", tc.xs, got, err, tc.want)
		}
	}
	for _, xs := range [][]float64{nil, {1, 0}, {2, -1}, {math.NaN()}, {math.Inf(1)}} {
		if _, err := geomean(xs); err == nil {
			t.Errorf("geomean(%v): want error", xs)
		}
	}
}

func TestRatioBase(t *testing.T) {
	if r, err := ratio(3, 2); err != nil || r != 1.5 {
		t.Errorf("ratio(3, 2) = %v, %v", r, err)
	}
	// Nothing happened on either side: the two are equal.
	if r, err := ratio(0, 0); err != nil || r != 1 {
		t.Errorf("ratio(0, 0) = %v, %v; want 1", r, err)
	}
	if _, err := ratio(5, 0); err == nil {
		t.Errorf("ratio(5, 0): want error")
	}
}

// pol builds a cell with the fields comparePolicies reads.
func pol(bench string, p uvmsim.MigrationPolicy, cycles, thrashed uint64) cell {
	return cell{bench: bench, policy: p, c: uvmsim.Counters{Cycles: cycles, ThrashedPages: thrashed}}
}

func TestComparePoliciesBases(t *testing.T) {
	cells := []cell{
		pol("bfs", uvmsim.PolicyDisabled, 400, 30),
		pol("bfs", uvmsim.PolicyAlways, 300, 20),
		pol("bfs", uvmsim.PolicyAdaptive, 100, 6),
		pol("ra", uvmsim.PolicyDisabled, 90, 10),
		pol("ra", uvmsim.PolicyAdaptive, 10, 0),
		pol("ra", uvmsim.PolicyAdaptive, 1, 0), // only the first Adaptive cell counts
		pol("nw", uvmsim.PolicyAdaptive, 7, 1), // no Disabled base: left out
	}
	pc, err := comparePolicies(cells)
	if err != nil {
		t.Fatal(err)
	}
	if want := 6.0; math.Abs(pc.speedup-want) > 1e-12 { // sqrt(4 * 9)
		t.Errorf("speedup = %v, want %v", pc.speedup, want)
	}
	if want := 6.0 / 40; pc.thrashRatio != want { // summed Adaptive over summed Disabled
		t.Errorf("thrash ratio = %v, want %v", pc.thrashRatio, want)
	}
	if want := map[string]float64{"bfs": 4, "ra": 9}; !reflect.DeepEqual(pc.perBench, want) {
		t.Errorf("per benchmark = %v, want %v", pc.perBench, want)
	}

	// No page thrashes under either policy (small serve cells): the
	// thrash ratio's base is zero and the ratio is 1.
	pc, err = comparePolicies([]cell{
		pol("fdtd", uvmsim.PolicyDisabled, 120, 0),
		pol("fdtd", uvmsim.PolicyAdaptive, 100, 0),
	})
	if err != nil || pc.thrashRatio != 1 || pc.speedup != 1.2 {
		t.Errorf("zero thrash base: %+v, %v; want ratio 1, speedup 1.2", pc, err)
	}
	// Adaptive thrashes where Disabled does not: no finite ratio.
	if _, err := comparePolicies([]cell{
		pol("fdtd", uvmsim.PolicyDisabled, 120, 0),
		pol("fdtd", uvmsim.PolicyAdaptive, 100, 3),
	}); err == nil {
		t.Errorf("positive thrash over a zero base: want error")
	}
	if _, err := comparePolicies([]cell{pol("ra", uvmsim.PolicyAdaptive, 1, 0)}); err == nil {
		t.Errorf("no Disabled/Adaptive pair: want error")
	}
}

func TestPackageOf(t *testing.T) {
	for fn, want := range map[string]string{
		"uvmsim/internal/sim.(*Engine).Run":                                           "uvmsim/internal/sim",
		"uvmsim/internal/gpu.(*GPU).issue.func1":                                      "uvmsim/internal/gpu",
		"uvmsim/internal/sweep.Parallel[go.shape.*uvmsim/internal/core.Result].func1": "uvmsim/internal/sweep",
		"runtime.mallocgc":                 "runtime",
		"internal/runtime/maps.(*Map).Get": "internal/runtime/maps",
		"net/http.(*conn).serve":           "net/http",
		"main.(*tracer).begin":             "main",
		"aeshashbody":                      "aeshashbody",
	} {
		if got := packageOf(fn); got != want {
			t.Errorf("packageOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestLayerOf(t *testing.T) {
	for pkg, want := range map[string]string{
		"uvmsim/internal/satmath":      "counters",
		"uvmsim/internal/counters":     "counters",
		"uvmsim/internal/evict":        "evict",
		"uvmsim/internal/uvm":          "uvm",
		"uvmsim/internal/mm":           "uvm",
		"uvmsim/internal/policy":       "uvm",
		"uvmsim/internal/prefetch":     "uvm",
		"uvmsim/internal/devmem":       "uvm",
		"uvmsim/internal/interconnect": "uvm",
		"uvmsim/internal/sim":          "sim",
		"uvmsim/internal/core":         "sim",
		"uvmsim/internal/gpu":          "gpu",
		"uvmsim/internal/workloads":    "workloads",
		"uvmsim/internal/experiments":  "experiments",
		"uvmsim/internal/sweep":        "experiments",
		"uvmsim/internal/serve":        "serve",
		"uvmsim/internal/multigpu":     "multigpu",
		"uvmsim/internal/nosuchpkg":    "other",
		"runtime":                      "runtime",
		"internal/runtime/maps":        "runtime",
		"net/http":                     "stdlib",
		"encoding/json":                "stdlib",
		"main":                         "perfbench",
		"example.com/x/y":              "other",
		"":                             "other",
	} {
		if got := layerOf(pkg); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", pkg, got, want)
		}
	}
}

func TestBucketCountsSatmathAsCounters(t *testing.T) {
	share := bucket(map[string]int64{
		"uvmsim/internal/counters.(*File).Access": 30,
		"uvmsim/internal/satmath.Mul":             20,
		"uvmsim/internal/sim.(*Engine).Run":       40,
		"example.com/x.F":                         10,
	})
	want := map[string]float64{"counters": 0.5, "sim": 0.4, "other": 0.1}
	for _, l := range layers {
		if share[l] != want[l] {
			t.Errorf("share[%s] = %v, want %v", l, share[l], want[l])
		}
	}
	if empty := bucket(nil); empty["sim"] != 0 || len(empty) != len(layers) {
		t.Errorf("empty profile: %v", empty)
	}
}

// pb is a minimal protobuf encoder for hand-built test profiles.
type pb []byte

func (b pb) varint(num int, v uint64) pb {
	b = binary.AppendUvarint(b, uint64(num)<<3)
	return binary.AppendUvarint(b, v)
}

func (b pb) bytes(num int, msg []byte) pb {
	b = binary.AppendUvarint(b, uint64(num)<<3|2)
	b = binary.AppendUvarint(b, uint64(len(msg)))
	return append(b, msg...)
}

func TestFlatProfileChargesInnermostLeafFunction(t *testing.T) {
	var packed pb
	for _, v := range []uint64{2, 1} { // leaf location 2, caller 1
		packed = binary.AppendUvarint(packed, v)
	}
	var vals pb
	for _, v := range []uint64{3, 30} {
		vals = binary.AppendUvarint(vals, v)
	}
	var prof pb
	prof = prof.bytes(2, pb{}.bytes(1, packed).bytes(2, vals))         // packed fields
	prof = prof.bytes(2, pb{}.varint(1, 1).varint(2, 1).varint(2, 10)) // one field per value
	// Location 2 has sim.Run inlined into core.Run: the first line is
	// the innermost frame.
	prof = prof.bytes(4, pb{}.varint(1, 2).bytes(4, pb{}.varint(1, 12)).bytes(4, pb{}.varint(1, 11)))
	prof = prof.bytes(4, pb{}.varint(1, 1).bytes(4, pb{}.varint(1, 11)))
	prof = prof.bytes(5, pb{}.varint(1, 11).varint(2, 1))
	prof = prof.bytes(5, pb{}.varint(1, 12).varint(2, 2))
	for _, s := range []string{"", "uvmsim/internal/core.Run", "uvmsim/internal/sim.(*Engine).Run"} {
		prof = prof.bytes(6, []byte(s))
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write(prof)
	zw.Close()

	flat, err := flatProfile(gz.Bytes(), 1)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int64{"uvmsim/internal/sim.(*Engine).Run": 30, "uvmsim/internal/core.Run": 10}
	if !reflect.DeepEqual(flat, want) {
		t.Errorf("flat = %v, want %v", flat, want)
	}
	if _, err := flatProfile(gz.Bytes(), 2); err == nil {
		t.Errorf("value index out of range: want error")
	}
	if _, err := flatProfile([]byte("not gzip"), 0); err == nil {
		t.Errorf("garbage input: want error")
	}
}

func TestServeStreamIsSeededAndBalanced(t *testing.T) {
	const n = 1500
	a, b := serveStream(7, n), serveStream(7, n)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed gave different streams")
	}
	if reflect.DeepEqual(a, serveStream(8, n)) {
		t.Fatalf("different seeds gave the same stream")
	}
	hot := map[serveReq]bool{}
	for _, r := range hotSet() {
		hot[r] = true
	}
	nHot := 0
	cold := map[serveReq]bool{}
	perWorkload := map[string]int{}
	for _, r := range a {
		if hot[r] {
			nHot++
			continue
		}
		if r.seed == 0 || r.seed > coldSeeds {
			t.Errorf("cold request %s: policy seed outside 1..%d", r.key(), coldSeeds)
		}
		if cold[r] {
			t.Errorf("cold request %s repeats", r.key())
		}
		cold[r] = true
		perWorkload[r.workload]++
	}
	if nHot != 1050 {
		t.Errorf("%d hot requests, want 1050", nHot)
	}
	for _, w := range uvmsim.Workloads() {
		if c := perWorkload[w]; c < 56 || c > 57 {
			t.Errorf("%s: %d cold requests, want 56 or 57 of 450", w, c)
		}
	}
}

// TestBenchmarkJSONDeclaresEveryMetric keeps BENCHMARK.json at the
// repository root in step with the metrics this program prints.
func TestBenchmarkJSONDeclaresEveryMetric(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	for _, w := range doc.Workloads {
		if _, err := newWorkload(w.Name, 1); err != nil {
			t.Errorf("declared workload %s: %v", w.Name, err)
		}
	}
	check := func(kind string, got []struct{ Name, Unit, Better string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: %d declared, %d printed", kind, len(got), len(want))
			return
		}
		for i, d := range want {
			if g := got[i]; g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
				t.Errorf("%s[%d]: declared %+v, printed %+v", kind, i, g, d)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd)
	check("per_layer", doc.PerLayer, perLayer)
}
