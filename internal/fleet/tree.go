package fleet

import "fmt"

// DefaultCadenceFactor is the per-level reallocation slowdown: a node at
// height h reallocates every ReallocEvery × factor^(h−1) intervals, so rack
// coordinators run faster than row coordinators, which run faster than the
// DC root — the same fast-inner/slow-outer layering the paper applies
// between the HW and OS layers on one board.
const DefaultCadenceFactor = 2

// TreeNode is one coordinator's runtime state inside a Tree.
type TreeNode struct {
	// TopoNode is the node's static shape (ID, Path, parent/children,
	// board range, height).
	TopoNode

	// Period is the node's reallocation period in control intervals. A
	// child's period always divides its parent's, so whenever a parent
	// re-divides its budget every descendant re-divides in the same
	// instant, top-down — a child never spends a fresh parent budget with
	// a stale split.
	Period int

	// BudgetW is the node's current incoming power budget: TotalW for the
	// root, the parent's latest allocation for everyone else.
	BudgetW float64

	// AllocLiveW is the live board weight of the node's subtree at the
	// instant its budget was last allocated. The conservation checker
	// bounds BudgetW against this latched weight rather than the current
	// one, because boards may finish between parent reallocations.
	AllocLiveW float64

	// Reallocs counts this node's policy invocations.
	Reallocs int

	policy Policy

	// Scratch for internal nodes: the per-child pseudo-board telemetry and
	// shares, allocated once at construction.
	childTel    []Telemetry
	childShares []float64
}

// Tree is the runtime coordinator hierarchy: every node re-divides its
// incoming budget over its children (or, at a leaf, over its boards) with
// its own Policy instance, on its own cadence. Conservation, floors and
// ceilings compose recursively: each allocation obeys the Policy contract,
// so Σ child budgets ≤ node budget at every level and every live board cap
// stays in [MinW, MaxW].
//
// A one-level tree (Depth 1) is the degenerate case: its single node runs
// the policy over all boards with the full budget. It is what the fleet
// runner uses when no topology is given.
//
// Methods are not safe for concurrent use; the fleet runner calls them from
// its coordination goroutine between stepping barriers.
type Tree struct {
	// Topo is the validated shape the tree was built from.
	Topo *Topology
	// Nodes holds the runtime nodes in preorder (Nodes[i] corresponds to
	// Topo.Nodes[i]).
	Nodes []TreeNode

	budget       Budget
	reallocEvery int
	factor       int
	leafOf       []int // board index -> leaf node index
}

// NewTree builds the runtime tree for a topology. budget is the root budget
// and the per-board bounds; reallocEvery the leaf reallocation period in
// control intervals; cadenceFactor the per-level slowdown (0 ⇒
// DefaultCadenceFactor, 1 ⇒ every node on the leaf cadence); newPolicy
// constructs one policy instance per node (stateful policies must not be
// shared across nodes).
func NewTree(topo *Topology, budget Budget, reallocEvery, cadenceFactor int, newPolicy func() Policy) (*Tree, error) {
	if topo == nil || len(topo.Nodes) == 0 {
		return nil, fmt.Errorf("fleet: tree needs a topology")
	}
	if newPolicy == nil {
		return nil, fmt.Errorf("fleet: tree needs a policy factory")
	}
	if budget.TotalW <= 0 || budget.MinW <= 0 || budget.MaxW < budget.MinW {
		return nil, fmt.Errorf("fleet: invalid tree budget %+v", budget)
	}
	if budget.TotalW < budget.MinW*float64(topo.Boards) {
		return nil, fmt.Errorf("fleet: tree budget %.1f W cannot cover the %.1f W floor for %d boards",
			budget.TotalW, budget.MinW, topo.Boards)
	}
	if reallocEvery <= 0 {
		return nil, fmt.Errorf("fleet: tree realloc period %d must be positive", reallocEvery)
	}
	if cadenceFactor == 0 {
		cadenceFactor = DefaultCadenceFactor
	}
	if cadenceFactor < 1 {
		return nil, fmt.Errorf("fleet: tree cadence factor %d must be >= 1", cadenceFactor)
	}

	t := &Tree{
		Topo:         topo,
		Nodes:        make([]TreeNode, len(topo.Nodes)),
		budget:       budget,
		reallocEvery: reallocEvery,
		factor:       cadenceFactor,
		leafOf:       make([]int, topo.Boards),
	}
	for i := range topo.Nodes {
		n := &t.Nodes[i]
		n.TopoNode = topo.Nodes[i]
		n.policy = newPolicy()
		if n.policy == nil {
			return nil, fmt.Errorf("fleet: tree policy factory returned nil")
		}
		period := reallocEvery
		for h := 1; h < n.Height; h++ {
			period *= cadenceFactor
		}
		n.Period = period
		n.AllocLiveW = float64(n.Boards)
		if len(n.Children) > 0 {
			n.childTel = make([]Telemetry, len(n.Children))
			n.childShares = make([]float64, len(n.Children))
		} else {
			for b := n.First; b < n.First+n.Boards; b++ {
				t.leafOf[b] = i
			}
		}
	}
	t.Nodes[0].BudgetW = budget.TotalW
	return t, nil
}

// PolicyName returns the name of the per-node policy.
func (t *Tree) PolicyName() string { return t.Nodes[0].policy.Name() }

// Budget returns the root budget and per-board bounds the tree divides.
func (t *Tree) Budget() Budget { return t.budget }

// BoardCoord maps a global board index to its leaf coordinator's Path and
// the board's leaf-local index. In a one-level tree the Path is "" and the
// local index is the global index, so flat fault RunKey streams are
// preserved exactly.
func (t *Tree) BoardCoord(board int) (path string, local int) {
	n := &t.Nodes[t.leafOf[board]]
	return n.Path, board - n.First
}

// Due appends (to buf) the preorder indices of the nodes whose reallocation
// period divides step, and returns the extended slice. Every leaf is due at
// every multiple of reallocEvery; higher nodes thin out by the cadence
// factor. Because a child's period divides its parent's, a due parent
// implies every descendant is due — reallocation always propagates top-down
// within one instant.
func (t *Tree) Due(step int, buf []int) []int {
	for i := range t.Nodes {
		if step%t.Nodes[i].Period == 0 {
			buf = append(buf, i)
		}
	}
	return buf
}

// NodeRealloc reports whether node i reallocates at the given step.
func (t *Tree) NodeRealloc(i, step int) bool { return step%t.Nodes[i].Period == 0 }

// Realloc runs the due nodes' policies in preorder: each internal node
// re-divides its budget over its children (each child presented as one
// pseudo-board whose telemetry aggregates its subtree, weighted by its live
// board count), and each leaf divides its budget over its boards, writing
// caps[First:First+Boards]. due must come from Due (preorder order —
// parents re-divide before their children spend). boardTel holds one entry
// per global board; caps is the global cap vector.
func (t *Tree) Realloc(due []int, boardTel []Telemetry, caps []float64) {
	for _, i := range due {
		n := &t.Nodes[i]
		b := Budget{TotalW: n.BudgetW, MinW: t.budget.MinW, MaxW: t.budget.MaxW}
		if len(n.Children) == 0 {
			n.policy.Allocate(caps[n.First:n.First+n.Boards], b, boardTel[n.First:n.First+n.Boards])
			n.Reallocs++
			continue
		}
		for k, ci := range n.Children {
			c := &t.Nodes[ci]
			n.childTel[k] = t.aggregate(c, boardTel)
			n.childShares[k] = c.BudgetW
		}
		n.policy.Allocate(n.childShares, b, n.childTel)
		for k, ci := range n.Children {
			c := &t.Nodes[ci]
			c.BudgetW = n.childShares[k]
			c.AllocLiveW = 0
			if !n.childTel[k].Done {
				c.AllocLiveW = n.childTel[k].Weight
			}
		}
		n.Reallocs++
	}
}

// aggregate distills a child subtree into the single weighted pseudo-board
// telemetry its parent's policy sees: live board count as the weight, sums
// of live power and throughput, the child's current budget as its "cap",
// pressed if any live board is throttled, done when no board is live.
func (t *Tree) aggregate(c *TreeNode, boardTel []Telemetry) Telemetry {
	agg := Telemetry{CapW: c.BudgetW}
	liveW := 0.0
	for b := c.First; b < c.First+c.Boards; b++ {
		bt := boardTel[b]
		if bt.Done {
			continue
		}
		liveW++
		agg.PowerW += bt.PowerW
		agg.BIPS += bt.BIPS
		if bt.Throttled {
			agg.Throttled = true
		}
	}
	agg.Weight = liveW
	agg.Done = liveW == 0
	return agg
}

// CheckConservation verifies the composed invariants at every level of the
// tree against the current budgets and board caps: the root budget is
// intact; every internal node's child budgets sum within its own budget;
// every leaf's board caps sum within its budget; every live board cap lies
// in [MinW, MaxW] and every done board cap is zero; and every non-root
// budget lies in the weighted band [AllocLiveW·MinW, AllocLiveW·MaxW]
// latched at its allocation instant. It returns the first violation found,
// or nil. boardTel supplies per-board liveness; eps absorbs the rescaling
// arithmetic (1e-9 is appropriate).
func (t *Tree) CheckConservation(boardTel []Telemetry, caps []float64, eps float64) error {
	if got := t.Nodes[0].BudgetW; got != t.budget.TotalW {
		return fmt.Errorf("fleet: root budget %.9f != configured %.9f", got, t.budget.TotalW)
	}
	for i := range t.Nodes {
		n := &t.Nodes[i]
		if len(n.Children) > 0 {
			sum := 0.0
			for _, ci := range n.Children {
				sum += t.Nodes[ci].BudgetW
			}
			if sum > n.BudgetW+eps {
				return fmt.Errorf("fleet: node %q child budgets %.9f W exceed its budget %.9f W",
					nodeLabel(n), sum, n.BudgetW)
			}
		} else {
			sum := 0.0
			for b := n.First; b < n.First+n.Boards; b++ {
				sum += caps[b]
			}
			if sum > n.BudgetW+eps {
				return fmt.Errorf("fleet: leaf %q board caps %.9f W exceed its budget %.9f W",
					nodeLabel(n), sum, n.BudgetW)
			}
			for b := n.First; b < n.First+n.Boards; b++ {
				if boardTel[b].Done {
					if caps[b] != 0 {
						return fmt.Errorf("fleet: leaf %q done board %d holds %.9f W", nodeLabel(n), b, caps[b])
					}
					continue
				}
				if caps[b] < t.budget.MinW-eps {
					return fmt.Errorf("fleet: leaf %q board %d cap %.9f W below floor %.9f W",
						nodeLabel(n), b, caps[b], t.budget.MinW)
				}
				if caps[b] > t.budget.MaxW+eps {
					return fmt.Errorf("fleet: leaf %q board %d cap %.9f W above ceiling %.9f W",
						nodeLabel(n), b, caps[b], t.budget.MaxW)
				}
			}
		}
		if n.Parent >= 0 {
			if n.AllocLiveW == 0 {
				if n.BudgetW != 0 {
					return fmt.Errorf("fleet: node %q has %.9f W with no live boards at allocation",
						nodeLabel(n), n.BudgetW)
				}
				continue
			}
			if n.BudgetW < float64(n.AllocLiveW*t.budget.MinW)-eps {
				return fmt.Errorf("fleet: node %q budget %.9f W below weighted floor %.9f W",
					nodeLabel(n), n.BudgetW, n.AllocLiveW*t.budget.MinW)
			}
			if n.BudgetW > float64(n.AllocLiveW*t.budget.MaxW)+eps {
				return fmt.Errorf("fleet: node %q budget %.9f W above weighted ceiling %.9f W",
					nodeLabel(n), n.BudgetW, n.AllocLiveW*t.budget.MaxW)
			}
		}
	}
	return nil
}

// nodeLabel names a node in error messages; the root's empty Path prints as
// its ID.
func nodeLabel(n *TreeNode) string {
	if n.Path == "" {
		return n.ID
	}
	return n.Path
}
