package core

import (
	"f2/internal/partition"
	"f2/internal/relation"
)

// ecMember is one equivalence class inside an ECG, real or fake.
type ecMember struct {
	// rep is the plaintext representative over the MAS attributes
	// (ascending attribute order). For fake members these are freshly
	// minted marker values absent from D.
	rep []string
	// rows are the original row indices (empty for fake members).
	rows []int
	// size is the plaintext frequency f (for fake members, the minimum
	// size in the group, per §3.2.1).
	size int
	fake bool

	split     bool
	instances []*ecInstance
}

// ecInstance is one ciphertext instance of a member: after Step 2 every
// copy of the instance carries the identical ciphertext tuple over the MAS
// attributes, and all instances in an ECG share the same final frequency.
type ecInstance struct {
	member *ecMember
	idx    int
	// cipher maps MAS attribute -> ciphertext, filled by the encryptor.
	cipher map[int]string
	// assignedRows are the original rows carrying this instance.
	assignedRows []int
	// copies is the number of scale copies to synthesize (Step 2.2 scaling
	// plus type-1 conflict handling of Step 3).
	copies int
}

// ecg is an equivalence class group (Step 2.1) plus its splitting-and-
// scaling plan (Step 2.2).
type ecg struct {
	id      int
	members []*ecMember // sorted by ascending size; fakes included
	// splitPoint is the index j into members: members[j:] are split into ϖ
	// instances, members[:j] are not. splitPoint == len(members) means no
	// member is split.
	splitPoint int
	// target is the homogenized ciphertext frequency of every instance.
	target int
}

// buildECGs implements Step 2.1 for one MAS: sort the non-singleton ECs of
// π_M by ascending size, then greedily group collision-free classes of
// close sizes until each group holds k classes, minting fake classes when
// a group cannot be filled.
//
// Fake representatives are drawn from mint (fresh marker values,
// collision-free by construction).
func buildECGs(t *relation.Table, p *partition.Partition, mas relation.AttrSet, k int, mint *freshMinter) []*ecg {
	classes := p.NonSingletonClasses()
	if len(classes) == 0 {
		return nil
	}
	var groups []*ecg
	members := make([]*ecMember, len(classes))
	for i, c := range classes {
		members[i] = &ecMember{rep: t.Project(c.Rows[0], mas), rows: c.Rows, size: c.Size()}
	}

	attrs := mas.Attrs()
	used := make([]bool, len(members))
	for start := 0; start < len(members); start++ {
		if used[start] {
			continue
		}
		g := &ecg{id: len(groups)}
		// Per-attribute value sets of the group, for collision checks.
		vals := make([]map[string]bool, len(attrs))
		for i := range vals {
			vals[i] = make(map[string]bool)
		}
		add := func(m *ecMember) {
			g.members = append(g.members, m)
			for i := range attrs {
				vals[i][m.rep[i]] = true
			}
		}
		collides := func(m *ecMember) bool {
			for i := range attrs {
				if vals[i][m.rep[i]] {
					return true
				}
			}
			return false
		}
		add(members[start])
		used[start] = true
		// Scan forward: members are size-sorted, so the nearest
		// collision-free classes are also the closest in size.
		for next := start + 1; next < len(members) && len(g.members) < k; next++ {
			if used[next] || collides(members[next]) {
				continue
			}
			add(members[next])
			used[next] = true
		}
		// Fill with fake classes. Their representatives are fresh values,
		// so they are collision-free by construction; their size is the
		// minimum size in the group (§3.2.1).
		minSize := g.members[0].size
		for _, m := range g.members {
			if m.size < minSize {
				minSize = m.size
			}
		}
		for len(g.members) < k {
			rep := make([]string, len(attrs))
			for i := range rep {
				rep[i] = mint.value()
			}
			// Unlike add, the group's per-attribute value sets are not
			// updated: nothing is matched against this group after its
			// fakes join, and fresh marker values never collide anyway.
			g.members = append(g.members, &ecMember{rep: rep, size: minSize, fake: true})
		}
		sortMembersBySize(g.members)
		groups = append(groups, g)
	}
	return groups
}

func sortMembersBySize(ms []*ecMember) {
	// Insertion sort: groups are small (k members) and mostly sorted.
	for i := 1; i < len(ms); i++ {
		for j := i; j > 0 && ms[j].size < ms[j-1].size; j-- {
			ms[j], ms[j-1] = ms[j-1], ms[j]
		}
	}
}

// planSplit implements Step 2.2 for one ECG: choose the split point j that
// minimizes the number of scale copies, then record per-member split
// decisions and the homogenized target frequency.
//
// With sizes f_1 ≤ … ≤ f_k, split point j (members[j:] split into ϖ
// instances of natural frequency ⌈f_i/ϖ⌉, members[:j] unsplit with natural
// frequency f_i), the homogenized target is
//
//	T(j) = max(minFreq, f_{j-1}, ⌈f_k/ϖ⌉)   (f_0 = 0)
//
// and the number of copies is
//
//	cost(j) = Σ_{i<j} (T-f_i) + Σ_{i≥j} (ϖ·T - f_i).
//
// The paper's case-1/case-2 closed forms are this cost restricted to
// T = ⌈f_k/ϖ⌉ and T = f_{j-1}; evaluating every j with prefix sums is
// equivalent and also handles the MinInstanceFreq floor. j ranges over
// [1, k]: the largest class is always split, which is what makes the
// scheme probabilistic (Def. 3.1 requires t > 1 instances).
func planSplit(g *ecg, splitFactor, minFreq int) {
	planSplitMax(g, splitFactor, minFreq, len(g.members))
}

// planSplitNaive forces the split point to j = 1 — every class split —
// the baseline the optimal search is measured against (ablation).
func planSplitNaive(g *ecg, splitFactor, minFreq int) {
	planSplitMax(g, splitFactor, minFreq, 1)
}

// planSplitMax evaluates split points j ∈ [1, maxJ] and keeps the
// cheapest.
func planSplitMax(g *ecg, splitFactor, minFreq, maxJ int) {
	k := len(g.members)
	sizes := make([]int, k)
	for i, m := range g.members {
		sizes[i] = m.size
	}
	ceilDiv := func(a, b int) int { return (a + b - 1) / b }

	bestJ, bestT, bestCost := -1, 0, -1
	// prefix[i] = f_1 + … + f_i
	prefix := make([]int, k+1)
	for i := 0; i < k; i++ {
		prefix[i+1] = prefix[i] + sizes[i]
	}
	for j := 1; j <= maxJ; j++ {
		t := ceilDiv(sizes[k-1], splitFactor)
		if j > 1 && sizes[j-2] > t {
			t = sizes[j-2] // f_{j-1} in 1-based paper notation
		}
		if t < minFreq {
			t = minFreq
		}
		unsplit := j - 1
		split := k - unsplit
		cost := unsplit*t - prefix[unsplit] + split*splitFactor*t - (prefix[k] - prefix[unsplit])
		if bestCost < 0 || cost < bestCost || (cost == bestCost && j > bestJ) {
			bestJ, bestT, bestCost = j, t, cost
		}
	}
	g.splitPoint = bestJ - 1 // convert to 0-based index into members
	g.target = bestT
	for i, m := range g.members {
		m.split = i >= g.splitPoint
		n := 1
		if m.split {
			n = splitFactor
		}
		m.instances = make([]*ecInstance, n)
		for x := 0; x < n; x++ {
			m.instances[x] = &ecInstance{member: m, idx: x, cipher: make(map[int]string)}
		}
	}
}

// assignRows distributes a member's original rows across its instances
// round-robin and records how many scale copies each instance needs to
// reach the group target.
func assignRows(g *ecg) {
	for _, m := range g.members {
		n := len(m.instances)
		for i, r := range m.rows {
			inst := m.instances[i%n]
			inst.assignedRows = append(inst.assignedRows, r)
		}
		for _, inst := range m.instances {
			inst.copies = g.target - len(inst.assignedRows)
		}
	}
}

// groupStats aggregates plan-level counts for the report.
type groupStats struct {
	numECGs      int
	numECs       int
	numFakeECs   int
	numInstances int
	fakeRows     int // rows synthesized for fake members (GROUP overhead)
	scaleRows    int // copies added to real members (SCALE overhead)
}

func statsOf(groups []*ecg) groupStats {
	var s groupStats
	for _, g := range groups {
		s.numECGs++
		for _, m := range g.members {
			s.numECs++
			if m.fake {
				s.numFakeECs++
			}
			for _, inst := range m.instances {
				s.numInstances++
				if m.fake {
					s.fakeRows += g.target
				} else {
					s.scaleRows += inst.copies
				}
			}
		}
	}
	return s
}
