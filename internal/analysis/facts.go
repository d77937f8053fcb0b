package analysis

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
)

// Facts is a cross-package store of analyzer-exported facts. An analyzer
// that needs information to flow across package boundaries (purityflow's
// function summaries, say) exports a fact while analyzing the declaring
// package and imports it while analyzing a dependent; the driver loads
// packages in dependency order (see Loader.Load) so a declaration's facts
// always exist before its uses are analyzed.
//
// Keys are analyzer-chosen strings; the convention used in this
// repository is "<import-path>.<Type>.<member>" for fields and methods
// and "<import-path>.<name>" for package-level declarations. Values are
// JSON-encoded, so an imported fact is a copy the importer cannot alias.
type Facts struct {
	entries map[string]json.RawMessage
}

// NewFacts returns an empty store.
func NewFacts() *Facts {
	return &Facts{entries: map[string]json.RawMessage{}}
}

// Export records a fact under key. Re-exporting a key overwrites the
// previous value.
func (f *Facts) Export(key string, v any) error {
	raw, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("analysis: encoding fact %q: %w", key, err)
	}
	f.entries[key] = raw
	return nil
}

// Import decodes the fact stored under key into into, reporting whether
// the key exists. A malformed stored value also reports false.
func (f *Facts) Import(key string, into any) bool {
	raw, ok := f.entries[key]
	if !ok {
		return false
	}
	return json.Unmarshal(raw, into) == nil
}

// KeysWithPrefix returns every stored key beginning with prefix, sorted.
// The callgraph package uses it to enumerate method-set facts across all
// packages analyzed so far.
func (f *Facts) KeysWithPrefix(prefix string) []string {
	var out []string
	for k := range f.entries {
		if strings.HasPrefix(k, prefix) {
			out = append(out, k)
		}
	}
	sort.Strings(out)
	return out
}
