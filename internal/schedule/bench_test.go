package schedule_test

import (
	"fmt"
	"testing"

	"mpss/internal/opt"
	"mpss/internal/workload"
)

// BenchmarkVerify checks the optimal schedule of a diurnal instance
// (m = 8), as cert.Check and mpss-verify do after every solve.
func BenchmarkVerify(b *testing.B) {
	for _, n := range []int{2048, 8192} {
		b.Run(fmt.Sprintf("diurnal-%d", n), func(b *testing.B) {
			in, err := workload.Diurnal(workload.Spec{N: n, M: 8, Seed: 1})
			if err != nil {
				b.Fatal(err)
			}
			res, err := opt.Schedule(in)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := res.Schedule.Verify(in); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(res.Schedule.Segments)), "segments")
		})
	}
}
