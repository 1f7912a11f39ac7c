package repro_test

import (
	"fmt"
	"log"

	"repro"
	"repro/internal/keys"
	"repro/internal/report"
)

// Quickstart: sort the (scaled) 1M size class with the paper's
// recommended combination — radix sort under the SHMEM model — and
// compare against the sequential baseline for the speedup.
func Example_quickstart() {
	size, err := repro.SizeByLabel("1M")
	if err != nil {
		log.Fatal(err)
	}
	out, err := repro.Run(repro.Experiment{
		Algorithm: repro.Radix,
		Model:     repro.SHMEM,
		N:         size.ScaledN,
		Procs:     16,
		Radix:     8,
		Dist:      keys.Gauss,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("sorted %d keys on %d simulated processors\n", size.ScaledN, out.Experiment.Procs)
	fmt.Printf("simulated time: %.3f ms (verified: %v)\n", out.TimeNs/1e6, out.Verified)
	fmt.Printf("first keys: %v\n", out.Result.Sorted[:4])
	fmt.Printf("last keys:  %v\n", out.Result.Sorted[len(out.Result.Sorted)-4:])

	base, err := repro.Run(repro.Experiment{
		Algorithm: repro.Radix, Model: repro.Seq,
		N: size.ScaledN, Procs: 1, Radix: 8, Dist: keys.Gauss,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("sequential baseline: %.3f ms -> speedup %.1f\n", base.TimeNs/1e6, base.TimeNs/out.TimeNs)
	// Output:
	// sorted 65536 keys on 16 simulated processors
	// simulated time: 3.084 ms (verified: true)
	// first keys: [52461307 77205489 94795254 116484467]
	// last keys:  [2037236169 2040256631 2042787124 2069821958]
	// sequential baseline: 34.105 ms -> speedup 11.1
}

// Breakdown: the paper's per-processor execution-time decomposition
// (BUSY / LMEM / RMEM / SYNC, Figures 4 and 8) as a stacked text chart,
// one bar per radix-sort variant on one configuration. As in Figure 4,
// the original CC-SAS program is dominated by memory time from its
// scattered remote writes; the explicit models and the buffered CC-SAS
// keep memory time low with bulk transfers.
func Example_breakdown() {
	size, err := repro.SizeByLabel("4M")
	if err != nil {
		log.Fatal(err)
	}
	const procs = 16
	sb := &report.StackedBreakdown{
		Title:      fmt.Sprintf("Radix sort mean per-processor time (µs), %s class on %dP", size.Label, procs),
		Categories: []string{"BUSY", "LMEM", "RMEM", "SYNC"},
	}
	for _, m := range []repro.Model{repro.CCSAS, repro.CCSASNew, repro.MPI, repro.SHMEM} {
		out, err := repro.Run(repro.Experiment{
			Algorithm: repro.Radix, Model: m, N: size.ScaledN, Procs: procs, Dist: keys.Gauss,
		})
		if err != nil {
			log.Fatal(err)
		}
		var sum [4]float64
		bds := out.Breakdowns()
		for _, b := range bds {
			sum[0] += b.Busy
			sum[1] += b.LMem
			sum[2] += b.RMem
			sum[3] += b.Sync
		}
		k := float64(len(bds)) * 1e3 // mean, in µs
		sb.Labels = append(sb.Labels, string(m))
		sb.Values = append(sb.Values, []float64{sum[0] / k, sum[1] / k, sum[2] / k, sum[3] / k})
	}
	fmt.Println(sb)
	// Output:
	// Radix sort mean per-processor time (µs), 4M class on 16P
	//   [B=BUSY l=LMEM r=RMEM s=SYNC]
	//   ccsas     |BBBBBBBBBBBBBBBBBBllllllllllllllllllllllllllllllllrrrrrrrs| 23554.902
	//   ccsas-new |BBBBBBBBBBBBBBBBBBBlrrrrrrs| 10879.083
	//   mpi       |BBBBBBBBBBBBBBBBBBBlrrs| 9556.708
	//   shmem     |BBBBBBBBBBBBBBBBBBrrs| 8983.966
}
