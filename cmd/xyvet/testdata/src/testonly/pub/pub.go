// Package pub is the production, non-internal user of lib.
package pub

import (
	"math/rand"

	"xymon/cmd/xyvet/testdata/src/testonly/internal/lib"
)

// Client re-exports lib.Client.
type Client = lib.Client

// Rand draws from lib's Source.
func Rand() *rand.Rand { return rand.New(&lib.Source{}) }

// One is lib.Used's answer.
func One() int { return lib.Used() }
