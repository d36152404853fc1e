package rwr

import (
	"math"
	"math/rand"

	"repro/internal/graph"
)

// The Monte Carlo stage of the anytime query tier (§6.2 of the paper, after
// Fogaras et al. and Avrachenkov et al.): ResidualWalkEstimate corrects a
// partial PMPN iterate with random walks, and ResidualWalkBand bounds the
// correction's error. Unlike the index's BCA bounds, a walk estimate is not a
// guaranteed bound, only a band that holds with a chosen probability.
//
// The estimator takes its *rand.Rand explicitly — there is no global
// randomness anywhere in this package, so fixing the seed fixes the output.

// ResidualWalkEstimate estimates the remaining PMPN error at node u from
// the last iteration's delta. With x^t the current iterate and
// δ = x^t − x^{t−1}, the exact correction is
//
//	p_u(q) − x^t[u] = Σ_{j≥1} [((1−α)Aᵀ)^j δ]_u,
//
// and because row-stochastic Aᵀ averages over u's out-neighbors
// proportionally to edge weight, [(Aᵀ)^j δ]_u = E[δ(V_j)] where V_j is the
// j-th step of the weight-proportional out-edge walk from u. Each walk
// therefore contributes Z = Σ_{j=1..maxLen} (1−α)^j δ(V_j); the mean of Z
// over `walks` independent walks is returned. E[Z] equals the correction up
// to the truncation bias |bias| ≤ ‖δ‖∞·(1−α)^{maxLen+1}/α, and each Z lies
// in ±‖δ‖∞·((1−α) − (1−α)^{maxLen+1})/α, so ResidualWalkBand turns a walk
// budget into a rigorous two-sided confidence band via Hoeffding.
//
// cur and prev are the iterate pair (rwr.ToStepper Current/Previous); both
// must cover the full node space.
func ResidualWalkEstimate[G graph.View](g G, u graph.NodeID, cur, prev []float64, maxLen, walks int, alpha float64, rng *rand.Rand) float64 {
	oneMinus := 1 - alpha
	var sum float64
	for w := 0; w < walks; w++ {
		v := u
		wgt := 1.0
		var z float64
		for j := 0; j < maxLen; j++ {
			v = stepNeighbor(g, v, rng)
			wgt *= oneMinus
			z += wgt * (cur[v] - prev[v])
		}
		sum += z
	}
	return sum / float64(walks)
}

// ResidualWalkBand returns the half-width of a two-sided confidence band
// for ResidualWalkEstimate that holds with probability ≥ 1 − fail:
//
//	|estimate − (p_u(q) − x^t[u])| ≤ band
//
// whenever ‖x^t − x^{t−1}‖∞ ≤ deltaInf. The band is the Hoeffding deviation
// for `walks` i.i.d. terms each confined to an interval of width
// 2·deltaInf·((1−α) − (1−α)^{maxLen+1})/α, plus the deterministic
// truncation bias deltaInf·(1−α)^{maxLen+1}/α of stopping walks at maxLen
// steps. It shrinks with the residual, so the estimator tightens exactly
// when the deterministic band (ToStepper.Tail) does — but by a ‖δ‖∞ factor
// where Tail pays ‖δ‖₁, which is what lets it decide candidates rounds
// earlier on slowly-mixing queries.
func ResidualWalkBand(deltaInf float64, maxLen, walks int, alpha, fail float64) float64 {
	if deltaInf <= 0 {
		return 0
	}
	oneMinus := 1 - alpha
	tailPow := math.Pow(oneMinus, float64(maxLen+1))
	span := deltaInf * (oneMinus - tailPow) / alpha
	hoeff := 2 * span * math.Sqrt(math.Log(2/fail)/(2*float64(walks)))
	trunc := deltaInf * tailPow / alpha
	return hoeff + trunc
}

// stepNeighbor samples the next node of a random walk currently at u,
// proportionally to out-edge weights.
func stepNeighbor[G graph.View](g G, u graph.NodeID, rng *rand.Rand) graph.NodeID {
	nbrs := g.OutNeighbors(u)
	ws := g.OutWeightsOf(u)
	if ws == nil {
		return nbrs[rng.Intn(len(nbrs))]
	}
	target := rng.Float64() * g.TotalOutWeight(u)
	var acc float64
	for i, v := range nbrs {
		acc += ws[i]
		if target < acc {
			return v
		}
	}
	return nbrs[len(nbrs)-1]
}
