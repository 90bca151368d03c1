// Package semantic reproduces the semantic module of the Xyleme
// architecture (Figure 1 and Section 2.1): it classifies XML resources
// into semantic domains. In Xyleme, data distribution and the integrated
// per-domain views both rest on "an automatic semantic classification of
// all DTDs"; here each domain is described by a prototype vocabulary of
// element tags, and documents (or DTDs, represented by their tag sets)
// are assigned to the closest domain by weighted cosine similarity over
// tag frequencies. The `domain = "biology"` atomic condition consumes
// the assignment.
package semantic

import (
	"math"
	"sort"
	"strings"
	"sync"

	"xymon/internal/xmldom"
)

// Classifier assigns documents to semantic domains. Safe for concurrent
// use; domains can be added while classification runs.
type Classifier struct {
	mu      sync.RWMutex
	domains map[string]map[string]float64 // domain -> tag -> weight
	// MinScore is the similarity below which a document stays
	// unclassified (empty domain).
	MinScore float64
}

// NewClassifier returns a classifier with no domains and the default
// similarity threshold.
func NewClassifier() *Classifier {
	return &Classifier{
		domains:  make(map[string]map[string]float64),
		MinScore: 0.1,
	}
}

// AddDomain registers (or extends) a domain described by typical element
// tags. Repeating a tag raises its weight.
func (c *Classifier) AddDomain(name string, tags ...string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	proto := c.domains[name]
	if proto == nil {
		proto = make(map[string]float64)
		c.domains[name] = proto
	}
	for _, t := range tags {
		proto[strings.ToLower(t)]++
	}
}

// TagProfile extracts the tag-frequency vector of a serialized XML
// document from the start tags of its node stream, the names
// xmldom.ParseBytes gives its elements, without building a tree. It fails
// exactly when ParseBytes does, with the same error.
func TagProfile(data []byte) (map[string]float64, error) {
	profile := make(map[string]float64)
	var z xmldom.Tokenizer
	z.Reset(data)
	for {
		k, err := z.Next()
		if err != nil {
			return nil, err
		}
		switch k {
		case xmldom.TokEOF:
			return profile, nil
		case xmldom.TokStart:
			profile[strings.ToLower(string(z.Tag()))]++
		}
	}
}

// Classify returns the best-matching domain for a serialized XML
// document and the cosine similarity score. An empty domain means no
// domain reached MinScore.
func (c *Classifier) Classify(data []byte) (string, float64, error) {
	profile, err := TagProfile(data)
	if err != nil {
		return "", 0, err
	}
	domain, score := c.classifyProfile(profile)
	return domain, score, nil
}

func (c *Classifier) classifyProfile(profile map[string]float64) (string, float64) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	bestName := ""
	bestScore := 0.0
	// Deterministic tie-break: iterate names in sorted order.
	names := make([]string, 0, len(c.domains))
	for name := range c.domains {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		score := cosine(profile, c.domains[name])
		if score > bestScore {
			bestName, bestScore = name, score
		}
	}
	if bestScore < c.MinScore {
		return "", bestScore
	}
	return bestName, bestScore
}

func cosine(a, b map[string]float64) float64 {
	if len(a) == 0 || len(b) == 0 {
		return 0
	}
	var dot, na, nb float64
	for k, va := range a {
		na += va * va
		if vb, ok := b[k]; ok {
			dot += va * vb
		}
	}
	for _, vb := range b {
		nb += vb * vb
	}
	if dot == 0 {
		return 0
	}
	return dot / (math.Sqrt(na) * math.Sqrt(nb))
}
