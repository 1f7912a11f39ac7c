// Package hostprof gives the command-line drivers their -cpuprofile and
// -memprofile flags: pprof profiles of the host process, which is what
// a question about simulator speed (not simulated time) needs.
package hostprof

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// Start creates the named profile files — either may be empty — and
// starts the CPU profile. Creating both up front makes an unwritable
// path fail before any simulation runs. The returned stop ends the CPU
// profile and writes the heap profile; call it once, when the work is
// done.
func Start(cpuPath, memPath string) (stop func() error, err error) {
	var cpu, mem *os.File
	if cpuPath != "" {
		if cpu, err = os.Create(cpuPath); err != nil {
			return nil, fmt.Errorf("-cpuprofile: %w", err)
		}
	}
	if memPath != "" {
		if mem, err = os.Create(memPath); err != nil {
			if cpu != nil {
				cpu.Close()
			}
			return nil, fmt.Errorf("-memprofile: %w", err)
		}
	}
	if cpu != nil {
		if err := pprof.StartCPUProfile(cpu); err != nil {
			cpu.Close()
			if mem != nil {
				mem.Close()
			}
			return nil, fmt.Errorf("-cpuprofile: %w", err)
		}
	}
	return func() error {
		if cpu != nil {
			pprof.StopCPUProfile()
			if err := cpu.Close(); err != nil {
				return fmt.Errorf("-cpuprofile: %w", err)
			}
		}
		if mem != nil {
			runtime.GC() // bring the live-heap numbers up to date
			if err := pprof.Lookup("allocs").WriteTo(mem, 0); err != nil {
				mem.Close()
				return fmt.Errorf("-memprofile: %w", err)
			}
			if err := mem.Close(); err != nil {
				return fmt.Errorf("-memprofile: %w", err)
			}
		}
		return nil
	}, nil
}
