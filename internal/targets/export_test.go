package targets

import (
	"fmt"

	"crashresist/internal/bin"
)

// GenDLLCorpus synthesizes n generated system DLLs from seed, returning
// the images, their declared specs, and the browse site plans, all in
// index order. The output is byte-identical however many workers build it
// and whatever corpus it is embedded in: BuildSysDLLs with
// GenSeed/GenDLLs set produces these exact images after its hand-built
// population. It is the standalone reference TestGenDLLEmbeddingInvariant
// compares that embedding against.
func GenDLLCorpus(seed int64, n int) ([]*bin.Image, []GenDLLSpec, []SitePlan, error) {
	if n < 0 {
		return nil, nil, nil, fmt.Errorf("gen dll corpus: negative n %d", n)
	}
	images := make([]*bin.Image, n)
	specs := make([]GenDLLSpec, n)
	sites := make([][]SitePlan, n)
	errs := make([]error, n)
	genParallel(n, func(i int) {
		images[i], specs[i], sites[i], errs[i] = buildGenDLL(seed, i)
	})
	for _, err := range errs {
		if err != nil {
			return nil, nil, nil, err
		}
	}
	var flat []SitePlan
	for _, s := range sites {
		flat = append(flat, s...)
	}
	return images, specs, flat, nil
}
