package lang

import (
	"math"
	"sort"

	"fuseme/internal/dag"
)

// Matrix-chain ordering: a run of `%*%` operators (A %*% B %*% C %*% ...)
// is associative, and the parenthesisation changes the flop count by orders
// of magnitude — e.g. V %*% U %*% t(U) evaluated left to right materialises
// a users x items dense product, while V %*% (U %*% t(U)) stays k x k.
// Like SystemML's optimizer, the parser collects each chain and builds the
// cheapest tree by the classic O(n^3) dynamic program, using sparse-aware
// flop estimates. Explicit parentheses in the source break chains and are
// honoured.
//
// A sub-product's estimated density depends on how it is parenthesised, and
// a dearer but sparser sub-product can make the enclosing product cheaper.
// So each interval keeps every (cost, density) pair no other pair beats on
// both counts, rather than the cheapest alone. A product's flops and density
// only grow with its operands' densities, so a dominated pair can never
// lead to a cheaper tree, and the DP returns the least-cost tree over every
// parenthesisation (while no interval overflows the cap below). On dense
// chains every density is 1 and each interval holds one pair: the classic
// DP. A long chain of very sparse operands can reach thousands of pairs per
// interval, so an interval keeps at most maxChainFront of them, spread over
// its densities and always including the cheapest — the tree is then never
// dearer than the classic DP's.
const maxChainFront = 16

// chainEntry is one non-dominated way to compute a sub-product: its flops,
// its estimated density, the split k and, for each side, the index of the
// entry it builds on.
type chainEntry struct {
	cost, density      float64
	split, left, right int
}

// buildChain constructs the optimal multiplication tree over operands.
func (p *parser) buildChain(operands []*dag.Node) *dag.Node {
	n := len(operands)
	if n == 1 {
		return operands[0]
	}
	if n == 2 {
		return p.g.MatMul(operands[0], operands[1])
	}
	// tab[i][j]: the non-dominated entries for operands[i..j], by ascending
	// density and so by descending cost. Density propagates with the same
	// estimator the DAG uses.
	tab := make([][][]chainEntry, n)
	for i := range tab {
		tab[i] = make([][]chainEntry, n)
		tab[i][i] = []chainEntry{{density: operands[i].Sparsity}}
	}
	for length := 2; length <= n; length++ {
		for i := 0; i+length-1 < n; i++ {
			j := i + length - 1
			rows := float64(operands[i].Rows)
			cols := float64(operands[j].Cols)
			var cands []chainEntry
			for k := i; k < j; k++ {
				inner := float64(operands[k].Cols)
				for li, left := range tab[i][k] {
					for ri, right := range tab[k+1][j] {
						d := left.density * right.density
						mul := 2 * rows * inner * cols * d
						sp := 1 - math.Pow(1-d, inner)
						if sp < 0 {
							sp = 0
						}
						cands = append(cands, chainEntry{cost: left.cost + right.cost + mul,
							density: sp, split: k, left: li, right: ri})
					}
				}
			}
			tab[i][j] = paretoFront(cands)
		}
	}
	var build func(i, j int, e chainEntry) *dag.Node
	build = func(i, j int, e chainEntry) *dag.Node {
		if i == j {
			return operands[i]
		}
		k := e.split
		return p.g.MatMul(build(i, k, tab[i][k][e.left]), build(k+1, j, tab[k+1][j][e.right]))
	}
	top := tab[0][n-1]
	return build(0, n-1, top[len(top)-1])
}

// paretoFront keeps the candidates no other is at most as dense and strictly
// cheaper than, ordered by ascending density, thinned evenly to
// maxChainFront. Among equal candidates the earliest (lowest split) is kept.
func paretoFront(cands []chainEntry) []chainEntry {
	sort.Slice(cands, func(a, b int) bool {
		x, y := cands[a], cands[b]
		if x.density != y.density {
			return x.density < y.density
		}
		if x.cost != y.cost {
			return x.cost < y.cost
		}
		if x.split != y.split {
			return x.split < y.split
		}
		if x.left != y.left {
			return x.left < y.left
		}
		return x.right < y.right
	})
	front := cands[:0]
	for _, c := range cands {
		if len(front) == 0 || c.cost < front[len(front)-1].cost {
			front = append(front, c)
		}
	}
	if len(front) > maxChainFront {
		kept := make([]chainEntry, maxChainFront)
		for i := range kept {
			kept[i] = front[i*(len(front)-1)/(maxChainFront-1)]
		}
		front = kept
	}
	return front
}
