package main

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// pct is a percentile read off a sample, with the sample's size and the
// number of samples strictly beyond the reported rank, so a reader can
// judge how well the tail is supported.
type pct struct {
	Value  float64
	N      int
	Beyond int
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// xs. The input is not modified.
func percentile(xs []float64, p float64) (pct, error) {
	if len(xs) == 0 {
		return pct{}, fmt.Errorf("percentile of an empty sample")
	}
	if p <= 0 || p > 100 {
		return pct{}, fmt.Errorf("percentile %v outside (0, 100]", p)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return pct{Value: s[rank-1], N: len(s), Beyond: len(s) - rank}, nil
}

// median returns the middle of xs, averaging the two middle values of
// an even-sized sample.
func median(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, fmt.Errorf("median of an empty sample")
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m], nil
	}
	return (s[m-1] + s[m]) / 2, nil
}

// geomean returns the geometric mean of strictly positive values.
func geomean(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, fmt.Errorf("geometric mean of an empty sample")
	}
	var logSum float64
	for _, x := range xs {
		if !(x > 0) || math.IsInf(x, 1) {
			return 0, fmt.Errorf("geometric mean needs finite positive values, got %v", x)
		}
		logSum += math.Log(x)
	}
	return math.Exp(logSum / float64(len(xs))), nil
}

// ratio divides num by its base. A zero base is only meaningful when
// the numerator is zero too: neither side did the thing being compared
// (for example, no page thrashed under either policy), so the ratio is
// 1. A positive numerator over a zero base has no finite ratio and is an
// error rather than a silent 0 or Inf.
func ratio(num, base float64) (float64, error) {
	if base == 0 {
		if num == 0 {
			return 1, nil
		}
		return 0, fmt.Errorf("ratio %v/0 is undefined", num)
	}
	return num / base, nil
}

// packageOf extracts the import path from a Go symbol name as it
// appears in a CPU profile, e.g. "uvmsim/internal/sim.(*Engine).Run" ->
// "uvmsim/internal/sim". Type arguments are stripped first because they
// can contain import paths of their own.
func packageOf(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i]
	}
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// layerOf maps an import path to the layer its flat profile samples are
// counted against. The simulator's packages map onto the layers the
// benchmark reports; satmath is the saturating arithmetic behind the
// access counters, so it counts as counters.
func layerOf(pkg string) string {
	if name, ok := strings.CutPrefix(pkg, "uvmsim/internal/"); ok {
		if i := strings.IndexByte(name, '/'); i >= 0 {
			name = name[:i]
		}
		if l, ok := internalLayers[name]; ok {
			return l
		}
		return "other"
	}
	switch {
	case pkg == "uvmsim":
		return "experiments"
	case pkg == "main" || strings.HasPrefix(pkg, "uvmsim/perfbench"):
		return "perfbench"
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") ||
		strings.HasPrefix(pkg, "internal/runtime/") || pkg == "internal/abi" ||
		pkg == "internal/bytealg" || pkg == "sync/atomic":
		return "runtime"
	case pkg != "" && !strings.Contains(strings.SplitN(pkg, "/", 2)[0], "."):
		// Any other standard-library path (net/http, encoding/json,
		// crypto/sha256, ...): the serve workload's HTTP and JSON work.
		return "stdlib"
	}
	return "other"
}

// internalLayers assigns each uvmsim/internal package to a layer.
var internalLayers = map[string]string{
	"workloads":    "workloads",
	"alloc":        "workloads",
	"sim":          "sim",
	"core":         "sim",
	"gpu":          "gpu",
	"uvm":          "uvm",
	"mm":           "uvm",
	"policy":       "uvm",
	"prefetch":     "uvm",
	"devmem":       "uvm",
	"interconnect": "uvm",
	"tier":         "uvm",
	"memunits":     "uvm",
	"stats":        "uvm",
	"config":       "uvm",
	"learn":        "uvm",
	"evict":        "evict",
	"counters":     "counters",
	"satmath":      "counters",
	"experiments":  "experiments",
	"sweep":        "experiments",
	"report":       "experiments",
	"serve":        "serve",
	"resultio":     "serve",
	"cliutil":      "serve",
	"multigpu":     "multigpu",
	"obs":          "perfbench",
}

// layers lists every bucket layerOf can return, in report order.
var layers = []string{
	"workloads", "sim", "gpu", "uvm", "evict", "counters",
	"experiments", "serve", "multigpu", "runtime", "stdlib", "perfbench", "other",
}

// bucket sums flat profile weight per layer. flat maps a function name
// to its self weight (any unit); the result maps each layer in layers
// to its share of the total (all zero for an empty profile).
func bucket(flat map[string]int64) map[string]float64 {
	sums := make(map[string]int64, len(layers))
	var total int64
	for fn, w := range flat {
		sums[layerOf(packageOf(fn))] += w
		total += w
	}
	out := make(map[string]float64, len(layers))
	for _, l := range layers {
		if total > 0 {
			out[l] = float64(sums[l]) / float64(total)
		} else {
			out[l] = 0
		}
	}
	return out
}
