package machine_test

import (
	"fmt"
	"testing"

	"repro/internal/ccsas"
	"repro/internal/machine"
)

// BenchmarkGate measures one episode of the machine's gate on the host:
// a barrier of processors with empty bodies (p64, p256), or one hand-off
// through a ccsas.Flag by each of P/2 setter–waiter pairs (flag-p64,
// flag-p256). ns/op is per episode, all P processors included.
func BenchmarkGate(b *testing.B) {
	for _, procs := range []int{64, 256} {
		m, err := machine.New(machine.Origin2000Scaled(procs))
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("p%d", procs), func(b *testing.B) {
			m.Run(func(p *machine.Proc) {
				for i := 0; i < b.N; i++ {
					m.Barrier(p)
				}
			})
		})
		w := ccsas.NewWorld(m)
		flags := make([]*ccsas.Flag, procs/2)
		for i := range flags {
			flags[i] = ccsas.NewFlag(w)
		}
		b.Run(fmt.Sprintf("flag-p%d", procs), func(b *testing.B) {
			m.Run(func(p *machine.Proc) {
				f := flags[p.ID/2]
				for i := 0; i < b.N; i++ {
					if p.ID%2 == 0 {
						f.Set(p)
					} else {
						f.Wait(p)
					}
				}
			})
		})
		m.Release()
	}
}
