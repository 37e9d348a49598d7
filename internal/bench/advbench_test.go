package bench

import (
	"testing"

	"archis/internal/sqlengine"
)

// Go-benchmark form of the adversarial permissive predicate, for
// profiling the two access paths head to head (`-bench Adversarial`).
// The planned run scans; the probe run forces the ix_adv_flag probe
// an always-index rule would take.

const advBenchRows = 120000

func BenchmarkAdversarialScan(b *testing.B) {
	en, err := BuildAdversarialEngine(advBenchRows)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		en.MustExec(`select count(*), sum(v) from adv where flag = 1`)
	}
}

func BenchmarkAdversarialProbe(b *testing.B) {
	en, err := BuildAdversarialEngine(advBenchRows)
	if err != nil {
		b.Fatal(err)
	}
	var probe func() (*sqlengine.Result, error)
	err = sqlengine.ForEachPlan(en, nil, `select count(*), sum(v) from adv where flag = 1`,
		func(plan string, run func() (*sqlengine.Result, error)) error {
			if plan == "adv: index ix_adv_flag #0" {
				probe = run
			}
			return nil
		})
	if err != nil || probe == nil {
		b.Fatalf("no forced ix_adv_flag probe: %v", err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := probe(); err != nil {
			b.Fatal(err)
		}
	}
}
