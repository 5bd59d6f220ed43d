package core

import (
	"context"
	"testing"

	"repro/internal/gen"
	"repro/internal/obs"
)

// pinnedWorkCounters lists the machine-independent work counters that
// TestWorkCountersPinned holds at exact values.
var pinnedWorkCounters = []string{
	"qp/solves", "qp/iterations",
	"qp/solve_batches", "qp/solve_rhs",
	"qp/batch_lockstep_solves", "qp/batch_fallbacks",
	"core/cut_rounds", "core/qcp_probes",
}

// TestWorkCountersPinned holds the exact work counters of two fixed
// runs: an AES-65 QCP at scale 0.15, and the TestWaferSmoke wafer.  A
// counter missing from a want map is pinned at zero: the solo QCP runs
// no lockstep batch, and the smoke wafer's column groups never fall
// back to sequential solves.  The
// bit-identity tests pin what a solve returns; this pins how much work
// it took and how that work was classified — a solo solve counted as a
// lockstep batch, or a family that stopped batching, moves these
// numbers without moving any result.  A change that is meant to alter
// the solver trajectory must update the values in the same commit.
func TestWorkCountersPinned(t *testing.T) {
	cases := []struct {
		name string
		run  func(ctx context.Context) error
		want map[string]int64
	}{
		{"qcp", func(ctx context.Context) error {
			d, err := gen.Generate(gen.AES65().Scaled(0.15))
			if err != nil {
				return err
			}
			opt := DefaultOptions()
			golden, err := GoldenNominalCtx(ctx, d, opt.STA)
			if err != nil {
				return err
			}
			model, err := FitModelCtx(ctx, golden, opt.BothLayers, opt.Workers)
			if err != nil {
				return err
			}
			_, err = SolveQCP(ctx, QCPRequest{Golden: golden, Model: model, Opt: opt})
			return err
		}, map[string]int64{
			"qp/solves": 9, "qp/iterations": 1900,
			"core/cut_rounds": 9, "core/qcp_probes": 8,
		}},
		{"wafer", func(ctx context.Context) error {
			opt := DefaultOptions()
			opt.Workers = 2
			_, err := SolveWafer(ctx, WaferRequest{Compiled: waferComp(t, 0.05), Opt: opt, Wafer: smokeWafer()})
			return err
		}, map[string]int64{
			"qp/solves": 49, "qp/iterations": 5075,
			"qp/solve_batches": 1100, "qp/solve_rhs": 2200,
			"qp/batch_lockstep_solves": 11,
			"core/cut_rounds":          49, "core/qcp_probes": 12,
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rec := obs.New()
			if err := tc.run(obs.With(context.Background(), rec)); err != nil {
				t.Fatal(err)
			}
			got := rec.Snapshot().Counters
			for _, name := range pinnedWorkCounters {
				if got[name] != tc.want[name] {
					t.Errorf("%s = %d, want %d", name, got[name], tc.want[name])
				}
			}
		})
	}
}
