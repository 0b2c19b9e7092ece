package schema

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"xmlconflict/internal/match"
	"xmlconflict/internal/pattern"
	"xmlconflict/internal/xmltree"
)

// randomSchema builds a random well-formed schema over nLabels elements.
func randomSchema(rng *rand.Rand, nLabels int) *Schema {
	s := &Schema{Roots: map[string]bool{}, Elems: map[string]ElementDecl{}}
	labels := make([]string, nLabels)
	for i := range labels {
		labels[i] = fmt.Sprintf("e%d", i)
	}
	for i, l := range labels {
		decl := ElementDecl{Open: rng.Float64() < 0.15}
		// Child rules point only "forward" with some probability, keeping
		// required children acyclic so small valid trees exist.
		for j := i + 1; j < nLabels; j++ {
			if rng.Float64() > 0.5 {
				continue
			}
			r := ChildRule{Label: labels[j]}
			switch rng.Intn(4) {
			case 0:
				r.Min, r.Max = 0, 1 // ?
			case 1:
				r.Min, r.Max = 0, -1 // *
			case 2:
				r.Min, r.Max = 1, -1 // +
			default:
				r.Min, r.Max = 1, 1 // exactly one
			}
			decl.Children = append(decl.Children, r)
		}
		s.Elems[l] = decl
	}
	s.Roots[labels[0]] = true
	if nLabels > 1 && rng.Float64() < 0.5 {
		s.Roots[labels[1]] = true
	}
	return s
}

func TestRandomSchemaEnumerationMatchesBruteForce(t *testing.T) {
	// Property: for random schemas, EnumerateValid yields exactly the
	// valid subset of all trees over the schema's alphabet (up to a small
	// size bound), each class once.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := randomSchema(rng, rng.Intn(3)+2)
		labels := s.Labels()
		bound := 5
		enumerated := map[string]bool{}
		s.EnumerateValid(bound, func(tr *xmltree.Tree) bool {
			code := xmltree.Code(tr.Root())
			if enumerated[code] {
				t.Logf("duplicate class %s", tr.XML())
				return false
			}
			if err := s.Validate(tr); err != nil {
				t.Logf("invalid enumerated tree %s: %v", tr.XML(), err)
				return false
			}
			enumerated[code] = true
			return true
		})
		brute := map[string]bool{}
		enumerateAll(labels, bound, func(tr *xmltree.Tree) {
			if s.Valid(tr) {
				brute[xmltree.Code(tr.Root())] = true
			}
		})
		if len(brute) != len(enumerated) {
			t.Logf("schema %v: enumerated %d, brute %d", s.Elems, len(enumerated), len(brute))
			return false
		}
		for c := range brute {
			if !enumerated[c] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestRandomSchemaSatisfiabilitySound(t *testing.T) {
	// Property: whenever the pruner declares a random pattern
	// unsatisfiable under a random schema, no valid tree (up to a bound)
	// embeds the pattern.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := randomSchema(rng, rng.Intn(3)+2)
		labels := append(s.Labels(), "zout") // include a foreign label sometimes
		p := pattern.Random(rng, pattern.RandomConfig{
			Size: rng.Intn(4) + 1, Labels: labels,
			PWildcard: 0.25, PDescendant: 0.35, PBranch: 0.4,
		})
		if s.SatisfiablePattern(p) {
			return true // only soundness of pruning is claimed
		}
		bad := false
		s.EnumerateValid(6, func(tr *xmltree.Tree) bool {
			if match.Embeds(p, tr) {
				bad = true
				t.Logf("pruned pattern %s embeds into valid %s", p, tr.XML())
				return false
			}
			return true
		})
		return !bad
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestRandomSchemaValidityOfMutations(t *testing.T) {
	// Cross-check Validate against the enumerator from the other side:
	// giving a node of a valid tree a child with an undeclared label must
	// make Validate reject it.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := randomSchema(rng, rng.Intn(3)+2)
		var sample *xmltree.Tree
		count := 0
		s.EnumerateValid(5, func(tr *xmltree.Tree) bool {
			count++
			if rng.Intn(count) == 0 {
				sample = tr
			}
			return count < 50
		})
		if sample == nil {
			return true
		}
		nodes := sample.Nodes()
		n := nodes[rng.Intn(len(nodes))]
		sample.AddChild(n, "zalien")
		if err := s.Validate(sample); err == nil {
			t.Logf("alien label accepted: %s", sample.XML())
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}
