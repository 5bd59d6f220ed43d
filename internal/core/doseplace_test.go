package core

import (
	"context"
	"math"
	"testing"

	"repro/internal/gen"
	"repro/internal/obs"
	"repro/internal/sta"
)

// TestDosePlPathReuse pins one AES-65 dosePl run and its path-set reuse.
// The swap counts and the final MCT/leakage bits were recorded when
// every round re-extracted its top-K paths; reusing the set after a
// rejected round must not move them.  Paths are extracted on the first
// round and after every accepted round that another round follows; each
// other round reuses the set in hand.
func TestDosePlPathReuse(t *testing.T) {
	d, err := gen.Generate(gen.AES65().Scaled(0.08))
	if err != nil {
		t.Fatal(err)
	}
	golden, err := GoldenNominal(d, sta.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	model, err := FitModel(golden, false)
	if err != nil {
		t.Fatal(err)
	}
	opt := DefaultOptions()
	dm, err := SolveQP(context.Background(), QPRequest{Golden: golden, Model: model, Opt: opt, TauPs: golden.MCT})
	if err != nil {
		t.Fatal(err)
	}
	dopt := DefaultDosePlOptions()
	rec := obs.New()
	dp, err := DosePlCtx(obs.With(context.Background(), rec), golden, dm.Layers, opt, dopt)
	if err != nil {
		t.Fatal(err)
	}

	if dp.SwapsTried != 53 || dp.SwapsAccepted != 6 {
		t.Errorf("swaps tried/accepted = %d/%d, want 53/6", dp.SwapsTried, dp.SwapsAccepted)
	}
	if got := math.Float64bits(dp.After.MCTps); got != 0x408a49335f7a0adb {
		t.Errorf("after MCT bits %#x (%v), want 0x408a49335f7a0adb", got, dp.After.MCTps)
	}
	if got := math.Float64bits(dp.After.LeakUW); got != 0x403a4814dc975b09 {
		t.Errorf("after leakage bits %#x (%v), want 0x403a4814dc975b09", got, dp.After.LeakUW)
	}

	if len(dp.Rounds) != dopt.Rounds {
		t.Fatalf("%d rounds logged, want all %d (the pinned run never stops early)", len(dp.Rounds), dopt.Rounds)
	}
	wantExtract, wantReuse := int64(1), int64(0)
	for _, r := range dp.Rounds[:len(dp.Rounds)-1] {
		if r.Accepted {
			wantExtract++
		} else {
			wantReuse++
		}
	}
	if wantReuse == 0 || wantExtract == 1 {
		t.Fatalf("pinned run must mix accepted and rejected rounds: %+v", dp.Rounds)
	}
	snap := rec.Snapshot()
	if got := snap.Counters["core/dosepl_path_extractions"]; got != wantExtract {
		t.Errorf("core/dosepl_path_extractions = %d, want %d", got, wantExtract)
	}
	if got := snap.Counters["core/dosepl_path_reuses"]; got != wantReuse {
		t.Errorf("core/dosepl_path_reuses = %d, want %d", got, wantReuse)
	}
}
