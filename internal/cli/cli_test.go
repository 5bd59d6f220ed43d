package cli

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/obs"
)

func TestSharedFlagSurface(t *testing.T) {
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	c := AddFlagsTo(fs, "t")
	if err := fs.Parse([]string{"-workers", "3", "-stats"}); err != nil {
		t.Fatalf("parse: %v", err)
	}
	c.Init()
	defer c.Close()
	if c.Workers != 3 || !c.Stats {
		t.Fatalf("flag values: %+v", c)
	}
	ctx := c.Context()
	if obs.From(ctx) == nil {
		t.Fatal("-stats did not attach a recorder")
	}
	if c.Recorder() == nil {
		t.Fatal("Recorder() nil after Context()")
	}
}

func TestNoTelemetryByDefault(t *testing.T) {
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	c := AddFlagsTo(fs, "t")
	if err := fs.Parse(nil); err != nil {
		t.Fatalf("parse: %v", err)
	}
	c.Init()
	defer c.Close()
	if obs.From(c.Context()) != nil {
		t.Fatal("recorder attached without -stats or -bench-json")
	}
}

func TestFinishWritesBenchReport(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.json")
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	c := AddFlagsTo(fs, "t")
	if err := fs.Parse([]string{"-bench-json", path}); err != nil {
		t.Fatalf("parse: %v", err)
	}
	c.Init()
	defer c.Close()
	rec := obs.From(c.Context())
	if rec == nil {
		t.Fatal("-bench-json did not attach a recorder")
	}
	rec.Add("test/counter", 7)
	c.Finish("label", 0.5, 12, 2, time.Second)

	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("report not written: %v", err)
	}
	var rep obs.Report
	if err := json.Unmarshal(b, &rep); err != nil {
		t.Fatalf("report JSON: %v", err)
	}
	if rep.Schema != obs.Schema || rep.Label != "label" || rep.Scale != 0.5 || rep.TopK != 12 {
		t.Fatalf("report header: %+v", rep)
	}
	if rep.Counters["test/counter"] != 7 {
		t.Fatalf("report counters: %v", rep.Counters)
	}
}
