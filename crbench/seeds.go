package main

import (
	"fmt"
	"math/rand"

	"crashresist"
)

// Seeds are the inputs one benchmark seed selects. The program under test
// only ever sees these derived values, never the benchmark seed itself.
type Seeds struct {
	// Gen seeds the GenServers fleet of syscall-mega.
	Gen int64
	// base derives the per-pass analysis seeds.
	base int64
}

// deriveSeeds maps the benchmark seed to the seeds handed to the program.
func deriveSeeds(seed int64) Seeds {
	rng := rand.New(rand.NewSource(seed))
	return Seeds{Gen: 1 + rng.Int63n(1<<31), base: rng.Int63()}
}

// Analysis is the Request.Seed of batch pass i: the ASLR layout and every
// derived RNG. Verdicts do not depend on it, so the known answers hold for
// any value, but run time does (module layout changes lookup costs), so
// each pass draws its own and a run's median spans several layouts.
func (s Seeds) Analysis(i int) int64 {
	// splitmix64 of (base, i).
	z := uint64(s.base) + uint64(i+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return 1 + int64(z%(1<<31))
}

// Job is one entry of the service workload's job stream.
type Job struct {
	Tenant string
	Target string
	Seed   int64
}

const (
	streamLen = 64
	// perPaperServer is how often each Table I server appears in the
	// stream (12 of 64 jobs); the rest name members of the generated
	// mega fleet. The counts are fixed so that every seed's stream costs
	// the same to serve; the seed picks the fleet members, the order,
	// the tenants and the analysis seeds.
	perPaperServer = 3
)

// streamServers are the Table I servers the service stream draws from.
// Cherokee is left out: its EFAULT loop makes one job take seconds, so
// the job-latency tail would measure that single target (syscall-mega
// measures it instead).
var streamServers = []string{"nginx", "lighttpd", "memcached", "postgresql"}

var tenants = []string{"tenant-a", "tenant-b"}

// jobStream draws the service workload's job stream: streamLen
// single-server syscall jobs over two tenants, each with its own analysis
// seed. The same seed always yields the same stream.
func jobStream(seed int64) ([]Job, error) {
	fleet, err := crashresist.GenServerCount(crashresist.ScaleMega)
	if err != nil {
		return nil, fmt.Errorf("job stream: %w", err)
	}
	rng := rand.New(rand.NewSource(seed ^ 0x5e41ce))
	jobs := make([]Job, streamLen)
	for i := range jobs {
		j := Job{Tenant: tenants[rng.Intn(len(tenants))], Seed: 1 + rng.Int63n(1<<31)}
		if i < perPaperServer*len(streamServers) {
			j.Target = streamServers[i%len(streamServers)]
		} else {
			j.Target = fmt.Sprintf("gen-%d", rng.Intn(fleet))
		}
		jobs[i] = j
	}
	rng.Shuffle(len(jobs), func(a, b int) { jobs[a], jobs[b] = jobs[b], jobs[a] })
	return jobs, nil
}
