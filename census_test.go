package repro_test

import (
	"reflect"
	"testing"

	"repro"
	"repro/internal/cache"
	"repro/internal/keys"
	"repro/internal/machine"
	"repro/internal/mpi"
	"repro/internal/perfmodel"
	"repro/internal/report"
	"repro/internal/resultcache"
	"repro/internal/shmem"
	"repro/internal/sorts"
	"repro/internal/stats"
	"repro/internal/topology"
)

// TestOptionCensus counts the independently settable values of every
// configuration struct a front end or the harness fills, so adding a
// knob means editing this table on purpose (DESIGN.md's option census
// is the prose form).
func TestOptionCensus(t *testing.T) {
	for _, tc := range []struct {
		v    any
		want int
	}{
		{repro.Request{}, 10},
		{repro.Experiment{}, 17},
		{keys.GenConfig{}, 5},
		{repro.Options{}, 10},
		{sorts.Config{}, 5},
		{mpi.Config{}, 2},
		{shmem.Config{}, 0},
		{topology.Config{}, 3},
		{cache.Config{}, 3},
		{cache.TLBConfig{}, 2},
		{machine.Config{}, 7},
		{perfmodel.Workload{}, 3},
		{report.StackedBreakdown{}, 4},
		{resultcache.Config{}, 2},
		{stats.Config{}, 4},
	} {
		typ, n := reflect.TypeOf(tc.v), 0
		for i := 0; i < typ.NumField(); i++ {
			if typ.Field(i).IsExported() {
				n++
			}
		}
		if n != tc.want {
			t.Errorf("%s has %d exported fields, the census says %d: a new option needs two callers with different values (and a deleted one an update here)", typ, n, tc.want)
		}
	}
}
