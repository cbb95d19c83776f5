package core

import (
	"testing"
	"testing/quick"

	"f2/internal/partition"
	"f2/internal/relation"
)

// figure2Table reproduces the EC structure of Figure 2: five equivalence
// classes over MAS {A,B} with sizes 5, 4, 3, 2, 2 and the collision
// pattern of the paper (C1/C2 share a1, C2/C3 share b2, C3/C4 share a2).
func figure2Table() *relation.Table {
	rows := [][]string{}
	add := func(a, b string, count int) {
		for i := 0; i < count; i++ {
			rows = append(rows, []string{a, b})
		}
	}
	add("a1", "b1", 5) // C1
	add("a1", "b2", 4) // C2
	add("a2", "b2", 3) // C3
	add("a2", "b1", 2) // C4
	add("a3", "b3", 2) // C5
	return relation.MustFromRows(relation.MustSchema("A", "B"), rows)
}

func TestBuildECGsFigure2(t *testing.T) {
	tbl := figure2Table()
	m := relation.NewAttrSet(0, 1)
	p := partition.Of(tbl, m)
	mint := &freshMinter{}
	groups := buildECGs(tbl, p, m, 3, mint) // α = 1/3 ⇒ k = 3, as in the example

	if len(groups) != 2 {
		t.Fatalf("got %d ECGs, want 2 (paper: ECG1={C1,C3,fake}, ECG2={C2,C4,C5})", len(groups))
	}
	for gi, g := range groups {
		if len(g.members) != 3 {
			t.Fatalf("ECG%d has %d members, want 3", gi, len(g.members))
		}
		// Collision-freedom (Def. 3.4): no two members share a value on
		// any attribute.
		for i := 0; i < len(g.members); i++ {
			for j := i + 1; j < len(g.members); j++ {
				for c := range g.members[i].rep {
					if g.members[i].rep[c] == g.members[j].rep[c] {
						t.Errorf("ECG%d members %d,%d collide on attr %d (%q)",
							gi, i, j, c, g.members[i].rep[c])
					}
				}
			}
		}
	}
	// Exactly one fake EC is needed (paper: C6 joins {C1,C3}).
	fakes := 0
	for _, g := range groups {
		for _, m := range g.members {
			if m.fake {
				fakes++
				// Fake size = min size in group (§3.2.1).
				min := g.members[0].size
				for _, o := range g.members {
					if !o.fake && o.size < min {
						min = o.size
					}
				}
				if m.size != min {
					t.Errorf("fake EC size %d, want group minimum %d", m.size, min)
				}
			}
		}
	}
	if fakes != 1 {
		t.Errorf("got %d fake ECs, want 1", fakes)
	}
}

func TestBuildECGsEveryECAssignedOnce(t *testing.T) {
	tbl := figure2Table()
	m := relation.NewAttrSet(0, 1)
	p := partition.Of(tbl, m)
	groups := buildECGs(tbl, p, m, 3, &freshMinter{})
	seen := map[string]bool{}
	realECs := 0
	for _, g := range groups {
		for _, mem := range g.members {
			if mem.fake {
				continue
			}
			realECs++
			key := mem.rep[0] + "|" + mem.rep[1]
			if seen[key] {
				t.Fatalf("EC %s in two groups", key)
			}
			seen[key] = true
		}
	}
	if realECs != len(p.NonSingletonClasses()) {
		t.Fatalf("%d real ECs grouped, want %d", realECs, len(p.NonSingletonClasses()))
	}
}

// bruteSplitCost exhaustively evaluates every split point and returns the
// minimum number of scale copies — the oracle for planSplit.
func bruteSplitCost(sizes []int, splitFactor, minFreq int) int {
	ceil := func(a, b int) int { return (a + b - 1) / b }
	best := -1
	k := len(sizes)
	for j := 1; j <= k; j++ {
		t := ceil(sizes[k-1], splitFactor)
		if j > 1 && sizes[j-2] > t {
			t = sizes[j-2]
		}
		if t < minFreq {
			t = minFreq
		}
		cost := 0
		for i := 0; i < j-1; i++ {
			cost += t - sizes[i]
		}
		for i := j - 1; i < k; i++ {
			cost += splitFactor*t - sizes[i]
		}
		if best < 0 || cost < best {
			best = cost
		}
	}
	return best
}

func TestPlanSplitMatchesBruteForce(t *testing.T) {
	check := func(rawSizes []uint8, splitFactor uint8) bool {
		if len(rawSizes) == 0 || len(rawSizes) > 12 {
			return true
		}
		w := int(splitFactor%7) + 2 // ϖ ∈ [2, 8]
		sizes := make([]int, len(rawSizes))
		for i, s := range rawSizes {
			sizes[i] = int(s%40) + 2 // EC sizes ∈ [2, 41]
		}
		g := &ecg{}
		for _, s := range sizes {
			g.members = append(g.members, &ecMember{size: s})
		}
		sortMembersBySize(g.members)
		sorted := make([]int, len(g.members))
		for i, m := range g.members {
			sorted[i] = m.size
		}
		planSplit(g, w, 2)
		// Recompute the plan's cost.
		cost := 0
		for _, m := range g.members {
			n := 1
			if m.split {
				n = w
			}
			cost += n*g.target - m.size
		}
		return cost == bruteSplitCost(sorted, w, 2)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestPlanSplitInvariants(t *testing.T) {
	g := &ecg{}
	for _, s := range []int{2, 2, 3, 5, 9} {
		g.members = append(g.members, &ecMember{size: s, rows: make([]int, s)})
	}
	planSplit(g, 2, 2)
	if g.target < 2 {
		t.Errorf("target %d below MinInstanceFreq 2", g.target)
	}
	// The largest member is always split (Def. 3.1 needs t > 1 instances).
	last := g.members[len(g.members)-1]
	if !last.split || len(last.instances) != 2 {
		t.Errorf("largest EC not split into ϖ instances")
	}
	// Unsplit members keep one instance.
	for i, m := range g.members {
		if i < g.splitPoint && len(m.instances) != 1 {
			t.Errorf("unsplit member %d has %d instances", i, len(m.instances))
		}
	}
	// After assignment, every instance reaches the homogenized target.
	assignRows(g)
	for _, m := range g.members {
		for _, inst := range m.instances {
			if len(inst.assignedRows)+inst.copies != g.target {
				t.Errorf("instance of size-%d EC has %d rows + %d copies ≠ target %d",
					m.size, len(inst.assignedRows), inst.copies, g.target)
			}
		}
	}
}

func TestFreshMinterUniqueAndRecognizable(t *testing.T) {
	m := &freshMinter{}
	seen := map[string]bool{}
	for i := 0; i < 1000; i++ {
		v := m.value()
		if seen[v] {
			t.Fatalf("minted duplicate %q", v)
		}
		seen[v] = true
		if !IsArtificialValue(v) {
			t.Fatalf("minted value %q not recognizable", v)
		}
	}
	if IsArtificialValue("ordinary value") {
		t.Error("ordinary value misclassified as artificial")
	}
	if m.minted() != 1000 {
		t.Errorf("minted() = %d", m.minted())
	}
}
