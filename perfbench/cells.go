package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"time"

	"uvmsim"
	"uvmsim/internal/memunits"
	"uvmsim/internal/sim"
	"uvmsim/internal/uvm"
)

// cell is one finished simulation: a figure cell, one cluster run, or a
// cell the serve workload's server computed.
type cell struct {
	bench  string
	policy uvmsim.MigrationPolicy
	// c holds the run's counters; for a cluster run they are summed
	// over GPUs and Cycles is the makespan.
	c uvmsim.Counters
	// detail is a canonical rendering of every simulated statistic of
	// the run (per GPU for a cluster); digests and equality checks
	// compare it.
	detail string
	// events is the number of engine events fired, 0 where the
	// benchmark cannot observe it (cells computed inside the server).
	events uint64
	// kinds counts driver accesses by uvm.AccessKind (near, remote,
	// fault) through the public access observer; observed says whether
	// an observer was attached.
	kinds    [3]uint64
	observed bool
}

// pass records one timed iteration of a workload.
type pass struct {
	wall   float64   // seconds, the timed phase only
	ops    []float64 // per-operation latency in seconds (a cell or a request)
	failed int
	cells  []cell // simulations the program ran during the iteration
	// errs collects output-check failures found while running.
	errs []string
	// Serve only: per-request submit latency and total latency split
	// by cache outcome, in seconds, and the SHA-256 of each distinct
	// cell's payload (for the digest).
	submit, hit, miss []float64
	payloads          map[string][32]byte
}

// digest hashes everything the program simulated in the pass. Traced
// and untraced passes, and repeated iterations, must agree on it.
func (p *pass) digest() string {
	if p.payloads != nil {
		return payloadDigest(p.payloads)
	}
	h := sha256.New()
	for _, c := range p.cells {
		fmt.Fprintf(h, "%s\n", c.detail)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// simCycles sums simulated cycles over the pass's cells.
func (p *pass) simCycles() uint64 {
	var sum uint64
	for _, c := range p.cells {
		sum += c.c.Cycles
	}
	return sum
}

// fig6Base is the configuration of the paper's Fig. 6/7 sweep: the
// Table I defaults with migration penalty p = 8, as
// uvmsim.Fig6And7Cycles sets it.
func fig6Base() uvmsim.Config {
	cfg := uvmsim.DefaultConfig()
	cfg.Penalty = 8
	return cfg
}

// simulate runs one single-GPU cell through the public API. With a
// tracer it records the cell's span and counts access kinds through
// the driver's access observer. A panic inside the simulator (a failed
// invariant or a stuck model) is returned as an error.
func simulate(b *uvmsim.Workload, pol uvmsim.MigrationPolicy, cfg uvmsim.Config, tr *tracer) (c cell, dur float64, err error) {
	c = cell{bench: b.Name, policy: pol}
	var s *uvmsim.Simulator
	var res *uvmsim.Result
	err = safely(func() {
		s = uvmsim.New(b, cfg)
		if tr != nil {
			c.observed = true
			s.SetObserver(func(_ sim.Cycle, _ memunits.Addr, _ bool, k uvm.AccessKind) {
				if int(k) < len(c.kinds) {
					c.kinds[k]++
				}
			})
		}
		id := tr.begin("cell "+b.Name+"/"+pol.String(), 0)
		t0 := time.Now()
		res = s.Run()
		dur = time.Since(t0).Seconds()
		tr.end(id)
	})
	if err != nil {
		return c, dur, fmt.Errorf("%s/%s: %w", b.Name, pol, err)
	}
	c.c = res.Counters
	c.events = s.Engine.Fired()
	c.detail = fmt.Sprintf("%s/%s %+v", b.Name, pol, res.Counters)
	return c, dur, nil
}

// safely runs f and converts a panic into an error.
func safely(f func()) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	f()
	return nil
}

// validate checks the simulator's own counter invariants on every cell
// of the pass.
func (p *pass) validate() {
	for _, c := range p.cells {
		if err := c.c.Validate(); err != nil {
			p.errs = append(p.errs, fmt.Sprintf("%s/%s counters: %v", c.bench, c.policy, err))
		}
	}
}

// policyCompare holds the Fig. 6/7 comparison of Adaptive against
// Disabled over the benchmarks that ran under both.
type policyCompare struct {
	// speedup is the geometric mean of Disabled/Adaptive cycles.
	speedup float64
	// thrashRatio is thrashed pages summed under Adaptive over the same
	// sum under Disabled.
	thrashRatio float64
	// perBench is each benchmark's Disabled/Adaptive cycle ratio.
	perBench map[string]float64
}

// comparePolicies computes the Adaptive-vs-Disabled figures from cells.
// A benchmark counts once, from its first Disabled and first Adaptive
// cell.
func comparePolicies(cells []cell) (policyCompare, error) {
	type pair struct{ dis, ada *uvmsim.Counters }
	pairs := map[string]*pair{}
	var order []string
	for i := range cells {
		c := &cells[i]
		p := pairs[c.bench]
		if p == nil {
			p = &pair{}
			pairs[c.bench] = p
			order = append(order, c.bench)
		}
		switch {
		case c.policy == uvmsim.PolicyDisabled && p.dis == nil:
			p.dis = &c.c
		case c.policy == uvmsim.PolicyAdaptive && p.ada == nil:
			p.ada = &c.c
		}
	}
	pc := policyCompare{perBench: map[string]float64{}}
	var speedups []float64
	var thrDis, thrAda float64
	for _, b := range order {
		d, a := pairs[b].dis, pairs[b].ada
		if d == nil || a == nil {
			continue
		}
		r, err := ratio(float64(d.Cycles), float64(a.Cycles))
		if err != nil {
			return pc, fmt.Errorf("%s speedup: %w", b, err)
		}
		pc.perBench[b] = r
		speedups = append(speedups, r)
		thrDis += float64(d.ThrashedPages)
		thrAda += float64(a.ThrashedPages)
	}
	var err error
	if pc.speedup, err = geomean(speedups); err != nil {
		return pc, fmt.Errorf("adaptive speedup: %w", err)
	}
	if pc.thrashRatio, err = ratio(thrAda, thrDis); err != nil {
		return pc, fmt.Errorf("adaptive thrash ratio: %w", err)
	}
	return pc, nil
}
