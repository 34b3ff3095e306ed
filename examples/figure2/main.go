// Figure2 reproduces the paper's running examples: Figure 2's
// origin-sharing output (which objects are shared by which origins, and
// which stay origin-local) and Figure 3's context switch at origin
// allocations. It runs both OPA and the 0-ctx baseline to show the
// precision difference that motivates origins.
//
//	go run ./examples/figure2
package main

import (
	"context"
	"fmt"
	"log"
	"strings"

	"o2"
	"o2/internal/cases"
)

func main() {
	fmt.Println("=== Figure 2: origin-sharing analysis output ===")
	run("figure2.mini", cases.Figure2)

	fmt.Println("=== Figure 3: context switch at origin allocations ===")
	run("figure3.mini", cases.Figure3)
}

func run(name, src string) {
	for _, cfg := range []struct {
		label string
		conf  o2.Config
	}{
		{"O2 (1-origin OPA)", o2.DefaultConfig()},
		{"0-ctx baseline", func() o2.Config { c := o2.DefaultConfig(); c.Policy = o2.Insensitive; return c }()},
	} {
		res, err := o2.AnalyzeSources(context.Background(), []o2.Source{{Name: name, Bytes: []byte(src)}}, cfg.conf)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("--- %s ---\n", cfg.label)
		fmt.Printf("origins: %d, abstract objects: %d\n",
			res.Analysis.Origins.Len(), res.Analysis.NumObjs())

		fmt.Println("origin-sharing (the paper's Figure 2(d) report):")
		for _, key := range res.Sharing.Shared {
			var who []string
			for _, org := range res.Sharing.OriginsOf(key) {
				who = append(who, res.Analysis.Origins.Get(org).String())
			}
			fmt.Printf("  %-12s SHARED by %s\n", key, strings.Join(who, ", "))
		}

		fmt.Printf("races: %d\n", len(res.Races()))
		for _, r := range res.Races() {
			fmt.Printf("  %s\n", strings.ReplaceAll(r.String(), "\n", "\n  "))
		}
		fmt.Println()
	}
}
