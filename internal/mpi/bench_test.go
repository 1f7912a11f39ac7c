package mpi

import (
	"fmt"
	"testing"

	"repro/internal/machine"
)

// BenchmarkExchange is the host cost of one message of the sorting
// programs' all-to-all schedule, payload work excluded.
func BenchmarkExchange(b *testing.B) {
	for _, tc := range []struct{ procs, chunks int }{{64, 4}, {128, 2}} {
		b.Run(fmt.Sprintf("p%dx%dchunks", tc.procs, tc.chunks), func(b *testing.B) {
			c := comm(b, tc.procs, DefaultDirect())
			defer c.Machine().Release()
			run, messages := exchangeRun(c, tc.chunks)
			run(1)
			b.ResetTimer()
			run(b.N)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*messages), "ns/message")
		})
	}
}

func BenchmarkAllgather(b *testing.B) {
	b.Run("p64", func(b *testing.B) {
		c := comm(b, 64, DefaultDirect())
		defer c.Machine().Release()
		mine := make([]int32, 256)
		rounds := 6 // log2(64) messages a rank
		b.ResetTimer()
		mustRun(b, c.Machine(), func(p *machine.Proc) {
			for i := 0; i < b.N; i++ {
				Allgather(c, p, mine)
			}
		})
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*64*rounds), "ns/message")
	})
}
