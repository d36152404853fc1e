package gen

import (
	"fmt"
	"math/rand"

	"repro/internal/graph"
)

// Label classifies a web host in the spam-detection experiment (§5.4).
type Label uint8

const (
	// LabelNormal marks an ordinary host.
	LabelNormal Label = iota
	// LabelSpam marks a link-farm host.
	LabelSpam
	// LabelUndecided marks an unlabeled host (the Webspam corpus keeps
	// some hosts unjudged; we reproduce that).
	LabelUndecided
)

// String returns the label name.
func (l Label) String() string {
	switch l {
	case LabelNormal:
		return "normal"
	case LabelSpam:
		return "spam"
	case LabelUndecided:
		return "undecided"
	default:
		return fmt.Sprintf("Label(%d)", int(l))
	}
}

// SpamWebOptions parameterizes the labeled host-graph generator.
type SpamWebOptions struct {
	// Normal and Spam are the labeled population sizes; Undecided hosts
	// are added on top (the Webspam corpus is 8123 / 2113 / rest).
	Normal, Spam, Undecided int
	// Farms is the number of link farms the spam hosts split into.
	Farms int
	// FarmDensity is the number of intra-farm out-links per spam host.
	FarmDensity int
	// NormalOut is the number of out-links per normal host (copying
	// model among the normal population).
	NormalOut int
	// SpamToNormal is the per-spam-host count of camouflage links into
	// the normal population; NormalToSpam is the (small) per-normal-host
	// probability of a link into spam (hijacked or deceived pages).
	SpamToNormal int
	NormalToSpam float64
	Seed         int64
}

// DefaultSpamWebOptions mirrors the Webspam-uk2006 proportions at a
// configurable scale factor (scale=1 ⇒ ≈1140 hosts; the corpus is 10×).
func DefaultSpamWebOptions(scale int) SpamWebOptions {
	if scale <= 0 {
		scale = 1
	}
	return SpamWebOptions{
		Normal:       812 * scale,
		Spam:         211 * scale,
		Undecided:    117 * scale,
		Farms:        6 * scale,
		FarmDensity:  8,
		NormalOut:    6,
		SpamToNormal: 2,
		NormalToSpam: 0.02,
		Seed:         1,
	}
}

// SpamWeb generates a labeled web-host graph whose link structure carries
// the spam-detection signal of §5.4: link-farm members exchange the bulk of
// their RWR contributions with other members of the same farm, while
// normal hosts link mostly among themselves. Node layout: normal hosts
// first, then spam, then undecided.
func SpamWeb(o SpamWebOptions) (*graph.Graph, []Label, error) {
	if o.Normal <= 1 || o.Spam <= 1 || o.Undecided < 0 || o.Farms <= 0 {
		return nil, nil, fmt.Errorf("gen: bad spam-web populations %+v", o)
	}
	if o.FarmDensity <= 0 || o.NormalOut <= 0 || o.SpamToNormal < 0 || o.NormalToSpam < 0 || o.NormalToSpam > 1 {
		return nil, nil, fmt.Errorf("gen: bad spam-web link parameters %+v", o)
	}
	rng := rand.New(rand.NewSource(o.Seed))
	n := o.Normal + o.Spam + o.Undecided
	labels := make([]Label, n)
	for i := o.Normal; i < o.Normal+o.Spam; i++ {
		labels[i] = LabelSpam
	}
	for i := o.Normal + o.Spam; i < n; i++ {
		labels[i] = LabelUndecided
	}
	b := graph.NewBuilder(n)

	// Normal hosts: copying model among themselves, occasional spam link.
	// A bootstrap ring keeps early hosts' reachable sets non-degenerate
	// (see gen.Copying).
	adj := make([][]graph.NodeID, o.Normal)
	seedCount := o.NormalOut + 1
	if seedCount > o.Normal {
		seedCount = o.Normal
	}
	for v := 0; v < seedCount; v++ {
		t := graph.NodeID((v + 1) % seedCount)
		b.AddEdge(graph.NodeID(v), t)
		adj[v] = []graph.NodeID{t}
	}
	for v := seedCount; v < o.Normal; v++ {
		proto := rng.Intn(v)
		deg := o.NormalOut
		links := make([]graph.NodeID, 0, deg)
		for e := 0; e < deg; e++ {
			var t graph.NodeID
			if rng.Float64() < o.NormalToSpam {
				t = graph.NodeID(o.Normal + rng.Intn(o.Spam))
			} else if rng.Float64() < 0.7 && e < len(adj[proto]) {
				t = adj[proto][e]
			} else {
				t = graph.NodeID(rng.Intn(v))
			}
			b.AddEdge(graph.NodeID(v), t)
			links = append(links, t)
		}
		adj[v] = links
	}

	// Spam hosts: assigned round-robin to farms; dense intra-farm links
	// plus a few camouflage links to normal hosts.
	farmOf := func(s int) int { return s % o.Farms }
	farmMembers := make([][]graph.NodeID, o.Farms)
	for s := 0; s < o.Spam; s++ {
		farmMembers[farmOf(s)] = append(farmMembers[farmOf(s)], graph.NodeID(o.Normal+s))
	}
	for s := 0; s < o.Spam; s++ {
		id := graph.NodeID(o.Normal + s)
		members := farmMembers[farmOf(s)]
		for e := 0; e < o.FarmDensity; e++ {
			t := members[rng.Intn(len(members))]
			if t == id && len(members) > 1 {
				t = members[rng.Intn(len(members))]
			}
			b.AddEdge(id, t)
		}
		for e := 0; e < o.SpamToNormal; e++ {
			b.AddEdge(id, graph.NodeID(rng.Intn(o.Normal)))
		}
	}

	// Undecided hosts: sparse links into both populations.
	for u := 0; u < o.Undecided; u++ {
		id := graph.NodeID(o.Normal + o.Spam + u)
		for e := 0; e < 3; e++ {
			if rng.Float64() < 0.8 {
				b.AddEdge(id, graph.NodeID(rng.Intn(o.Normal)))
			} else {
				b.AddEdge(id, graph.NodeID(o.Normal+rng.Intn(o.Spam)))
			}
		}
	}

	g, _, err := b.Build(graph.DanglingSelfLoop)
	if err != nil {
		return nil, nil, err
	}
	return g, labels, nil
}
