package experiments

import (
	"fmt"

	"uvmsim/internal/serve"
	"uvmsim/internal/workloads"
)

// FigureNames lists the figures expressible as simd job submissions:
// the sweep-shaped figures. (Figures 2 and 3 are characterization
// traces, not config-matrix sweeps, and stay CLI-only.)
func FigureNames() []string { return []string{"fig1", "fig4", "fig5", "fig6", "fig7", "fig8"} }

// FigureJob expresses one figure sweep as a simd job submission: the
// exact cell set the in-process FigN function simulates, spelled as a
// serve.JobRequest. Submitting the job to a warm server reproduces the
// figure's raw cells entirely from cache; the figure functions and the
// service share the same derivation path (core.DeriveConfig), so their
// per-cell results are identical by construction.
func FigureJob(fig string, o Options) (serve.JobRequest, error) {
	o = o.withDefaults()
	req := serve.JobRequest{
		Name:      fig,
		Scale:     o.Scale,
		Workloads: o.Workloads,
		Base:      &o.Base,
	}
	switch fig {
	case "fig1":
		// Oversubscription sensitivity under the first-touch baseline.
		req.OversubPercents = []uint64{100, 125, 150}
		req.Policies = []string{"disabled"}
	case "fig4":
		// Static-threshold sensitivity: ts is a base-config field, so the
		// sweep needs explicit per-cell bases rather than a matrix axis.
		req.Workloads = nil
		for _, name := range o.Workloads {
			for _, ts := range []uint64{8, 16, 32} {
				base := o.Base
				base.StaticThreshold = ts
				req.Cells = append(req.Cells, serve.CellSpec{
					Workload:       name,
					OversubPercent: 125,
					Policy:         "always",
					Base:           &base,
				})
			}
		}
	case "fig5":
		// Policies with the working set fitting in device memory.
		req.OversubPercents = []uint64{100}
		req.Policies = []string{"disabled", "always", "adaptive"}
	case "fig6", "fig7":
		// One sweep backs both figures: all four schemes at 125% with the
		// paper's p=8 operating point.
		base := o.Base
		base.Penalty = 8
		req.Base = &base
		req.OversubPercents = []uint64{125}
		req.Policies = []string{"disabled", "always", "oversub", "adaptive"}
	case "fig8":
		// Penalty sensitivity: a Disabled baseline column plus one
		// Adaptive cell per penalty point, penalties living in the base.
		req.Workloads = nil
		for _, name := range o.Workloads {
			req.Cells = append(req.Cells, serve.CellSpec{
				Workload:       name,
				OversubPercent: 125,
				Policy:         "disabled",
				Base:           &o.Base,
			})
			for _, p := range Fig8Penalties {
				base := o.Base
				base.Penalty = p
				req.Cells = append(req.Cells, serve.CellSpec{
					Workload:       name,
					OversubPercent: 125,
					Policy:         "adaptive",
					Base:           &base,
				})
			}
		}
	default:
		return serve.JobRequest{}, fmt.Errorf("experiments: no job mapping for figure %q (have %v)", fig, FigureNames())
	}
	if err := jobWorkloads(req); err != nil {
		return serve.JobRequest{}, err
	}
	return req, nil
}

// jobWorkloads guards the figure-job mappings against workload-set
// drift: a figure job must never reference a workload the registry does
// not know. (The serve package re-validates at submit time; this lets
// tests assert it early.)
func jobWorkloads(req serve.JobRequest) error {
	check := func(name string) error {
		if _, ok := workloads.Get(name); !ok {
			return fmt.Errorf("experiments: job references unknown workload %q", name)
		}
		return nil
	}
	for _, w := range req.Workloads {
		if err := check(w); err != nil {
			return err
		}
	}
	for _, c := range req.Cells {
		if err := check(c.Workload); err != nil {
			return err
		}
	}
	return nil
}
