// Spam detection with reverse top-k RWR search (§5.4 of the paper).
//
// The idea: a web page's global random-walk score (Eq. 3 of the paper) is
// the sum of the RWR contributions it receives from all pages. If the pages that give q one of their TOP-k
// contributions are mostly known spam, q is very likely spam too — link
// farms boost each other. This example generates a labeled host graph with
// planted link farms, runs reverse top-5 queries from suspicious hosts, and
// scores them by the spam ratio of their answer sets.
//
// Run with: go run ./examples/spamdetect
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/lbindex"
)

func main() {
	log.SetFlags(0)

	opts := gen.DefaultSpamWebOptions(1)
	g, labels, err := gen.SpamWeb(opts)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("host graph: %d hosts (%d normal, %d spam, %d undecided), %d links\n",
		g.N(), opts.Normal, opts.Spam, opts.Undecided, g.M())

	iopts := lbindex.DefaultOptions()
	iopts.K = 50
	iopts.HubBudget = 10
	idx, _, err := lbindex.Build(g, iopts)
	if err != nil {
		log.Fatal(err)
	}
	eng, err := core.NewEngine(g, idx, true)
	if err != nil {
		log.Fatal(err)
	}

	// Score a mix of suspicious hosts: some actually spam, some normal.
	suspicious := []graph.NodeID{
		graph.NodeID(opts.Normal),      // a spam host
		graph.NodeID(opts.Normal + 17), // another spam host
		5,                              // a normal host
		graph.NodeID(opts.Normal - 3),  // another normal host
	}
	fmt.Println("\nhost  true_label  |answer|  spam_ratio  verdict")
	for _, q := range suspicious {
		answer, _, err := eng.Query(q, 5)
		if err != nil {
			log.Fatal(err)
		}
		spam := 0
		for _, v := range answer {
			if labels[v] == gen.LabelSpam {
				spam++
			}
		}
		ratio := 0.0
		if len(answer) > 0 {
			ratio = float64(spam) / float64(len(answer))
		}
		verdict := "looks normal"
		if ratio > 0.5 {
			verdict = "LIKELY SPAM"
		}
		fmt.Printf("%-5d %-11s %-8d %-11.2f %s\n", q, labels[q], len(answer), ratio, verdict)
	}
}
