// pbzip2join reproduces the paper's #BUG 2 case study (Fig. 18): pbzip2's
// consumers poll fifo->empty and producerDone under nested locks, creating
// read-read ULCPs that serialize the polling and burn CPU; the paper's fix
// moves the end-of-work check to the producer and signals the consumers
// (signal/wait model).
//
//	go run ./examples/pbzip2join
package main

import (
	"fmt"

	"perfplay/examples/internal/exhelp"
	"perfplay/internal/sim"
	"perfplay/internal/ulcp"
	"perfplay/internal/workload"
)

func main() {
	cfg := workload.Config{Threads: 2, Scale: 0.5, Seed: 3}

	app := workload.MustGet("pbzip2")
	analysis := exhelp.AnalyzeApp("pbzip2", cfg)
	fmt.Print(analysis.Summary(4))

	// The Fig. 18 pattern shows up as read-read pairs at
	// syncGetProducerDone (pbzip2.cpp:534) and the consumer poll loop.
	rr := 0
	for _, pair := range analysis.Report.Pairs {
		if pair.Cat == ulcp.ReadRead && analysis.CSs[pair.C1].Region.File == "pbzip2.cpp" {
			rr++
		}
	}
	fmt.Printf("\nread-read ULCPs in pbzip2.cpp (the Fig. 18 polling): %d\n", rr)

	// Side-by-side with the signal/wait fix: the polling CPU disappears.
	buggy := sim.Run(app.Build(cfg), sim.Config{Seed: 3})
	fixed := sim.Run(workload.BuildPbzip2Fixed(cfg), sim.Config{Seed: 3})
	fmt.Printf("\nbuggy: total %v, CPU %v\n", buggy.Total, buggy.CPUTotal())
	fmt.Printf("fixed: total %v, CPU %v\n", fixed.Total, fixed.CPUTotal())
	saved := buggy.CPUTotal() - fixed.CPUTotal()
	if saved > 0 {
		fmt.Printf("the signal/wait fix saves %v of CPU (%.1f%% of the buggy run's CPU)\n",
			saved, 100*float64(saved)/float64(buggy.CPUTotal()))
	}
}
