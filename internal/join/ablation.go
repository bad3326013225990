package join

// Ablation algorithms: variants the paper discusses when explaining the
// contradictions between earlier studies, but which are not among the
// thirteen of Table 2. They register under AblationAlgorithms so that
// Table 2 (join.Algorithms) stays exactly thirteen entries.

var ablationRegistry []Spec

func registerAblation(s Spec) { ablationRegistry = append(ablationRegistry, s) }

// AblationAlgorithms lists the extra variants.
func AblationAlgorithms() []Spec {
	out := make([]Spec, len(ablationRegistry))
	copy(out, ablationRegistry)
	return out
}

// NewAny resolves names from both the Table 2 registry and the ablation
// registry.
func NewAny(name string) (Algorithm, error) {
	for _, s := range ablationRegistry {
		if s.Name == name {
			return s.New(), nil
		}
	}
	return New(name)
}

// describe returns the registered Spec.Description of the named
// algorithm, from either registry: the one description every
// Algorithm.Description reports.
func describe(name string) string {
	for _, reg := range [][]Spec{registry, ablationRegistry} {
		for _, s := range reg {
			if s.Name == name {
				return s.Description
			}
		}
	}
	return name
}

func init() {
	registerAblation(Spec{
		Name:  "NOPC",
		Class: NoPartition,
		Description: "No-partitioning hash join with a latched chaining hash table " +
			"(the Blanas-style implementation the 2011 study used)",
		Paper: "Blanas et al. [7]",
		New: func() Algorithm {
			return &globalJoin{name: "NOPC", design: DesignChained}
		},
	})
}
