// Kernelmodel reproduces the paper's Linux-kernel configuration (§5.4) on
// a small scale: system calls are event-handler origins whose handlers are
// allocated in a loop — modeling two concurrent invocations of the same
// call — alongside a kernel thread and an interrupt handler. The vsyscall
// timezone race (concurrent writes to vdata[CS_HRES_COARSE]) is the
// headline bug O2 found in the kernel.
//
//	go run ./examples/kernelmodel
package main

import (
	"context"
	"fmt"
	"log"

	"o2"
	"o2/internal/cases"
	"o2/internal/pta"
)

func main() {
	res, err := o2.AnalyzeSources(context.Background(), []o2.Source{{Name: "linux.mini", Bytes: []byte(cases.LinuxCase.Source)}}, o2.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}

	threads, events := 0, 0
	for _, org := range res.Analysis.Origins.Origins {
		switch org.Kind {
		case pta.KindThread:
			threads++
		case pta.KindEvent:
			events++
		}
	}
	fmt.Println("Linux kernel model (§5.4)")
	fmt.Printf("  origins: %d total (%d syscall/driver events incl. concurrent twins, %d kthreads/irqs)\n",
		res.Analysis.Origins.Len(), events, threads)
	fmt.Printf("  abstract objects: %d, origin-shared locations: %d\n",
		res.Analysis.NumObjs(), len(res.Sharing.Shared))
	fmt.Printf("  races found: %d (paper: %d confirmed)\n\n", len(res.Races()), cases.LinuxCase.Races)

	for i, r := range res.Races() {
		fmt.Printf("race #%d on %s\n  %s\n  %s\n", i+1, r.Key, r.A, r.B)
	}

	// The headline bug: the vdata array element written by two concurrent
	// settimeofday invocations.
	for _, r := range res.Races() {
		if r.Key.Field == "*" {
			fmt.Println("\n^ the vsyscall timezone race: both sides are concurrent instances")
			fmt.Println("  of __x64_sys_settimeofday writing vdata[CS_HRES_COARSE].")
		}
	}
}
