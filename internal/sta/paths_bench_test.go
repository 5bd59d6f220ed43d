package sta_test

import (
	"testing"

	"repro/internal/gen"
	"repro/internal/sta"
)

// BenchmarkTopPaths times one dosePl-sized extraction: the K = 10 000
// longest paths of the AES-65 preset at scale 0.15 under dosePl's
// default cap of 2 000 000 popped states.
func BenchmarkTopPaths(b *testing.B) {
	d, err := gen.Generate(gen.AES65().Scaled(0.15))
	if err != nil {
		b.Fatal(err)
	}
	in := sta.Input{Circ: d.Circ, Masters: d.Masters, Pl: d.Pl, Node: d.Node}
	r, err := sta.Analyze(in, sta.DefaultConfig(), nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(r.TopPaths(10000, 2_000_000)) != 10000 {
			b.Fatal("fewer than K paths")
		}
	}
}
