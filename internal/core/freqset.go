package core

import (
	"fmt"
	"sort"

	"psk/internal/table"
)

// FrequencySet returns the descending ordered frequency set f_i of the
// attribute (Definition 4): the counts of each distinct value, largest
// first. The counts come from one block-wise pass into a dense
// per-entry counter (table.CodeCounts).
func FrequencySet(t *table.Table, attr string) ([]int, error) {
	counts, err := t.CodeCounts(attr)
	if err != nil {
		return nil, err
	}
	return descending(counts), nil
}

// descending returns the nonzero counts sorted largest first: a
// frequency set, from per-value counts that may include values no
// tuple holds.
func descending(counts []int) []int {
	f := make([]int, 0, len(counts))
	for _, c := range counts {
		if c > 0 {
			f = append(f, c)
		}
	}
	sort.Sort(sort.Reverse(sort.IntSlice(f)))
	return f
}

// frequencySets returns the frequency set of every confidential
// attribute, the input of both necessary-condition bounds.
func frequencySets(t *table.Table, confidential []string) ([][]int, error) {
	if len(confidential) == 0 {
		return nil, fmt.Errorf("core: no confidential attributes")
	}
	freqs := make([][]int, len(confidential))
	for i, attr := range confidential {
		f, err := FrequencySet(t, attr)
		if err != nil {
			return nil, err
		}
		freqs[i] = f
	}
	return freqs, nil
}

// Cumulative converts a descending frequency set f into its cumulative
// form cf: cf[i] = f[0] + ... + f[i].
func Cumulative(freq []int) []int {
	out := make([]int, len(freq))
	sum := 0
	for i, f := range freq {
		sum += f
		out[i] = sum
	}
	return out
}

// CFMax computes the paper's cf_i = max_j cf_i^j for the confidential
// attributes: element i (0-based here, 1-based in the paper) is the
// maximum over all confidential attributes of the cumulative frequency
// of their i+1 most common values. Its length is min_j s_j, the number
// of indices at which every attribute still has a defined cf value.
func CFMax(t *table.Table, confidential []string) ([]int, error) {
	freqs, err := frequencySets(t, confidential)
	if err != nil {
		return nil, err
	}
	return cfMaxOf(freqs), nil
}

// cfMaxOf is CFMax over precomputed frequency sets.
func cfMaxOf(freqs [][]int) []int {
	cfs := make([][]int, len(freqs))
	minLen := -1
	for i, f := range freqs {
		cfs[i] = Cumulative(f)
		if minLen == -1 || len(f) < minLen {
			minLen = len(f)
		}
	}
	if minLen < 0 {
		minLen = 0
	}
	out := make([]int, minLen)
	for i := range out {
		for _, cf := range cfs {
			if cf[i] > out[i] {
				out[i] = cf[i]
			}
		}
	}
	return out
}
