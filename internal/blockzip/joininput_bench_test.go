package blockzip_test

import (
	"testing"

	"archis/internal/bench"
	"archis/internal/core"
	"archis/internal/dataset"
)

// BenchmarkCompressedJoinInput times the two join shapes whose inputs
// are compressed histories: the translator's key-table join (the SQL
// of the XQuery form of Q3, x3) and the Q6 self-join. Every history is
// frozen into BlockZIP blocks; "cold" drops the caches before each
// query, "warm" runs with a 32 MiB decoded-block cache already filled.
// One intra-query worker, so the figure is the per-core read cost.
func BenchmarkCompressedJoinInput(b *testing.B) {
	e, err := bench.Build(joinInputConfig(), bench.Options{Layout: core.LayoutCompressed, Compress: true, Workers: 1})
	if err != nil {
		b.Fatal(err)
	}
	if err := e.FreezeAll(); err != nil {
		b.Fatal(err)
	}
	translated, err := e.TranslatedSQL()
	if err != nil {
		b.Fatal(err)
	}
	for _, q := range []struct{ name, sql string }{
		{"x3", translated[1]},
		{"q6j", e.JoinSQL()},
	} {
		for _, warm := range []bool{false, true} {
			name := q.name + "/cold"
			if warm {
				name = q.name + "/warm"
			}
			b.Run(name, func(b *testing.B) {
				cache := 0
				if warm {
					cache = 32 << 20
				}
				e.Sys.DB.SetBlockCacheBytes(cache)
				e.Cold()
				if warm {
					if _, err := e.Sys.Exec(q.sql); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if !warm {
						e.Cold()
					}
					if _, err := e.Sys.Exec(q.sql); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkClusteredJoinInput is the warm Q6 self-join on the
// clustered layout, the same data and worker count as
// BenchmarkCompressedJoinInput: every page cached, so the figure is
// plan, hash build and band probe.
func BenchmarkClusteredJoinInput(b *testing.B) {
	e, err := bench.Build(joinInputConfig(), bench.Options{Layout: core.LayoutClustered, Workers: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("q6j/warm", func(b *testing.B) {
		if _, err := e.Sys.Exec(e.JoinSQL()); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := e.Sys.Exec(e.JoinSQL()); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// joinInputConfig is the data both join-input benchmarks read.
func joinInputConfig() dataset.Config {
	cfg := dataset.DefaultConfig()
	cfg.Employees = 200
	cfg.Years = 10
	return cfg
}
