// Syncanalyses demonstrates the analyses built on top of OPA/OSA beyond
// race detection (§3 of the paper names deadlock and over-synchronization
// as clients), plus the synchronization extensions from the paper's future
// work (§4: atomics and condition variables):
//
//   - an AB/BA lock-order cycle between two workers (potential deadlock),
//     discovered through pointer aliasing of the lock objects;
//
//   - a lock region guarding only origin-local data (unnecessary
//     synchronization);
//
//   - a volatile flag whose concurrent accesses are synchronization, not
//     races;
//
//   - a producer/consumer pair ordered by a notify→wait happens-before
//     edge.
//
//     go run ./examples/syncanalyses
package main

import (
	"context"
	"fmt"
	"log"

	"o2"
)

const program = `
class Shared { field items; volatile field stop; }
class Scratch { field tmp; }

class Producer {
  field s; field lockA; field lockB; field cond;
  Producer(s, a, b, c) { this.s = s; this.lockA = a; this.lockB = b; this.cond = c; }
  run() {
    x = this.s;
    a = this.lockA;
    b = this.lockB;
    sync (a) { sync (b) { x.items = this; } }   // order: A then B
    x.stop = this;                              // volatile: no race
    c = this.cond;
    c.notify();                                 // publishes items
    scratch = new Scratch();
    sync (a) { scratch.tmp = this; }            // guards only local data
  }
}

class Consumer {
  field s; field lockA; field lockB; field cond;
  Consumer(s, a, b, c) { this.s = s; this.lockA = a; this.lockB = b; this.cond = c; }
  run() {
    x = this.s;
    a = this.lockA;
    b = this.lockB;
    c = this.cond;
    c.wait();
    r = x.items;                                // ordered after the notify
    v = x.stop;                                 // volatile read
    sync (b) { sync (a) { x.items = this; } }   // order: B then A — inversion!
  }
}

main {
  s = new Shared();
  a = new LockA();
  b = new LockB();
  c = new Cond();
  p = new Producer(s, a, b, c);
  q = new Consumer(s, a, b, c);
  p.start();
  q.start();
}
`

func main() {
	res, err := o2.AnalyzeSources(context.Background(), []o2.Source{{Name: "syncanalyses.mini", Bytes: []byte(program)}}, o2.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("data races: %d\n", len(res.Races()))
	for _, r := range res.Races() {
		fmt.Printf("  %s @ %s <-> %s\n", r.Key, r.A.Pos, r.B.Pos)
	}
	fmt.Println("  (items is lock-protected and notify-ordered; stop is volatile)")

	dl := res.Deadlocks()
	fmt.Printf("\ndeadlock analysis: %d lock-order edges, %d warnings\n", dl.Edges, len(dl.Warnings))
	for _, w := range dl.Warnings {
		fmt.Println(w.String())
	}

	ov := res.OverSync()
	fmt.Printf("\nover-synchronization: %d regions, %d useful, %d unnecessary\n",
		ov.Regions, ov.UsefulRegions, len(ov.Warnings))
	for _, w := range ov.Warnings {
		fmt.Println("  " + w.String())
	}
}
