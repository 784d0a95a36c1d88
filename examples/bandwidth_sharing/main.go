// Bandwidth sharing: the Figure 8 experiment as a runnable example. Six
// clients with different RTTs and access links start one phase apart
// (kollaps-bench -exp fig8 -quick's size); the decentralized Emulation
// Managers converge each phase onto the RTT-aware min-max allocation —
// the break-point values published in the paper.
package main

import (
	"fmt"
	"log"
	"os"

	"repro/internal/experiments"
)

func main() {
	log.SetFlags(0)
	fmt.Println("Running the Figure 8 decentralized throttling experiment")
	fmt.Println("(each cell is measured/model Mb/s; goodput runs ~4.5% below the")
	fmt.Println("model because iperf counts payload while htb shapes wire bytes):")
	fig8, _ := experiments.Lookup("fig8")
	tables, err := fig8.Run(true, "")
	if err != nil {
		log.Fatal(err)
	}
	for _, t := range tables {
		t.Fprint(os.Stdout)
	}
}
