// Schema refinement on outsourced data (the paper's §1: "improving schema
// quality through normalization"). The service provider discovers the
// functional dependencies of an F²-encrypted table and proposes a BCNF-
// style decomposition — split off every minimal FD whose left-hand side is
// not a key — all without reading a single plaintext value. The owner maps
// the proposal back to column names (schema metadata is public; values are
// not).
package main

import (
	"context"
	"fmt"
	"log"

	"f2/internal/core"
	"f2/internal/crypt"
	"f2/internal/fd"
	"f2/internal/partition"
	"f2/internal/relation"
	"f2/internal/workload"
)

func main() {
	// The synthetic dataset has two bijective column groups and a shared
	// attribute — a denormalized shape worth decomposing.
	table, err := workload.Generate(workload.NameSynthetic, 33000, 11)
	if err != nil {
		log.Fatal(err)
	}
	sch := table.Schema()

	key, err := crypt.GenerateKey()
	if err != nil {
		log.Fatal(err)
	}
	cfg := core.DefaultConfig(key)
	cfg.Alpha = 0.25
	enc, err := core.NewEncryptor(cfg)
	if err != nil {
		log.Fatal(err)
	}
	res, err := enc.Encrypt(context.Background(), table)
	if err != nil {
		log.Fatal(err)
	}

	// Server side: discover FDs on the ciphertext.
	rules := fd.DiscoverWitnessed(res.Encrypted)
	fmt.Printf("server: %d witnessed FDs on the encrypted table\n", rules.Len())

	// Server side: propose decompositions. For each minimal FD X→A where
	// X is not a key of the (encrypted) relation, suggest extracting the
	// sub-relation X∪{A} and dropping A from the main relation.
	plis := partition.NewCache(relation.Encode(res.Encrypted))
	isKey := func(x relation.AttrSet) bool {
		return !plis.Get(x).HasDuplicate()
	}
	type proposal struct {
		lhs relation.AttrSet
		rhs relation.AttrSet
	}
	byLHS := map[relation.AttrSet]relation.AttrSet{}
	for _, f := range rules.Slice() {
		if isKey(f.LHS) {
			continue
		}
		byLHS[f.LHS] = byLHS[f.LHS].Add(f.RHS)
	}
	var proposals []proposal
	for lhs, rhs := range byLHS {
		proposals = append(proposals, proposal{lhs, rhs})
	}

	// Owner side: render the proposals with real column names.
	fmt.Printf("server proposes %d decompositions; owner reads them as:\n", len(proposals))
	shown := 0
	for _, p := range proposals {
		fmt.Printf("  extract R%d(%s → %s), keep key %s in the base table\n",
			shown+1, p.lhs.Names(sch), p.rhs.Names(sch), p.lhs.Names(sch))
		shown++
		if shown >= 8 {
			fmt.Printf("  ... and %d more\n", len(proposals)-shown)
			break
		}
	}

	// Verify on plaintext: every proposed dependency really holds, so the
	// decomposition is lossless.
	plain := partition.NewCache(relation.Encode(table))
	for _, p := range proposals {
		for _, a := range p.rhs.Attrs() {
			if !fd.Holds(plain, fd.FD{LHS: p.lhs, RHS: a}) {
				log.Fatalf("proposed FD %s→%s does not hold on plaintext",
					p.lhs.Names(sch), sch.Name(a))
			}
		}
	}
	fmt.Println("owner verifies: all proposed dependencies hold on the plaintext — decomposition is lossless")
}
