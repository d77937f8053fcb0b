// Package netlist defines signal nets — the inputs to every routing
// algorithm in this repository — together with generation, validation and
// serialization utilities.
//
// A signal net N = {n0, n1, ..., nk} is a set of pins in the Manhattan
// plane. Pin n0 is the source (where the signal originates); the remaining
// pins are sinks. This matches Section 2 of McCoy & Robins.
package netlist

import (
	"bufio"
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	//nontree:allow nondetsource test-case generation only; every Generator draws from rand.New(rand.NewSource(seed)), so nets are a pure function of the seed
	"math/rand"
	"slices"
	"strconv"
	"strings"

	"nontree/internal/geom"
)

// SourceIndex is the pin index of the net's source; the paper fixes n0 as
// the source and we preserve that convention throughout.
const SourceIndex = 0

// Net is a signal net. Pins[SourceIndex] is the source; all other pins are
// sinks. Pin indices are stable and are used as node identifiers by the
// routing topology and delay-analysis packages.
type Net struct {
	// Name optionally identifies the net in reports and files.
	Name string `json:"name,omitempty"`
	// Pins holds the pin locations; Pins[0] is the source.
	Pins []geom.Point `json:"pins"`
}

// New constructs a net from a source pin and a list of sinks.
func New(source geom.Point, sinks ...geom.Point) *Net {
	pins := make([]geom.Point, 0, len(sinks)+1)
	pins = append(pins, source)
	pins = append(pins, sinks...)
	return &Net{Pins: pins}
}

// Source returns the location of the source pin n0.
func (n *Net) Source() geom.Point { return n.Pins[SourceIndex] }

// Sinks returns the sink pin locations (everything but the source).
func (n *Net) Sinks() []geom.Point { return n.Pins[1:] }

// NumPins returns the total pin count k+1 (source plus k sinks).
func (n *Net) NumPins() int { return len(n.Pins) }

// NumSinks returns the number of sinks k.
func (n *Net) NumSinks() int { return len(n.Pins) - 1 }

// Clone returns a deep copy of the net.
func (n *Net) Clone() *Net {
	pins := make([]geom.Point, len(n.Pins))
	copy(pins, n.Pins)
	return &Net{Name: n.Name, Pins: pins}
}

// BoundingBox returns the bounding box of the net's pins.
func (n *Net) BoundingBox() geom.Rect { return geom.BoundingBox(n.Pins) }

// Validation errors returned by Validate.
var (
	ErrTooFewPins      = errors.New("netlist: net needs at least two pins (source and one sink)")
	ErrDuplicatePins   = errors.New("netlist: net contains coincident pins")
	ErrNearPins        = errors.New("netlist: net contains near-coincident pins")
	ErrNonFinitePin    = errors.New("netlist: pin coordinate is NaN or infinite")
	ErrNegativeRegion  = errors.New("netlist: layout region must have positive side length")
	ErrNonPositiveSize = errors.New("netlist: net size must be at least 2 pins")
)

// Validate checks structural invariants required by the routing and delay
// code: at least a source and one sink, finite coordinates, no two pins at
// the same location (coincident pins create zero-length wires, i.e.
// zero-resistance cycles that the delay models reject), and no two pins
// within nearTolerance of the net's extent of each other.
func (n *Net) Validate() error {
	if len(n.Pins) < 2 {
		return ErrTooFewPins
	}
	seen := make(map[geom.Point]int, len(n.Pins))
	for i, p := range n.Pins {
		if !finite(p.X) || !finite(p.Y) {
			return fmt.Errorf("%w: pin %d at %v", ErrNonFinitePin, i, p)
		}
		if j, dup := seen[p]; dup {
			return fmt.Errorf("%w: pins %d and %d at %v", ErrDuplicatePins, j, i, p)
		}
		seen[p] = i
	}
	return nearPins(n.Pins)
}

// nearTolerance is how close two pins may come, relative to the larger
// side of the net's bounding box, before Validate rejects them as
// near-coincident. The wire between such pins conducts more than 10⁹
// times better than the net's longest, and wires of that contrast leave
// the grounded conductance matrix singular to working precision: a net of
// (0,0), (1e-300,0) and (5,5), or one with two pins 0.125 µm apart at
// x = 1e15 and another at the origin, validated but failed every
// algorithm. Any two pins farther apart keep that contrast below 10⁹,
// well inside the factorizations' 10⁻¹⁴ pivot tolerance.
const nearTolerance = 1e-9

// nearPins reports the first pair of distinct pins, in the order the
// duplicate check reports pairs (by the later pin, then the earlier),
// that lie within nearTolerance of the net's extent of each other. The
// pins are visited in x order, and a pin is compared only with those
// whose x lies within the tolerance of its own.
func nearPins(pins []geom.Point) error {
	box := geom.BoundingBox(pins)
	tol := nearTolerance * max(box.Width(), box.Height())
	order := make([]int, len(pins))
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int { return cmp.Or(cmp.Compare(pins[a].X, pins[b].X), a-b) })
	first, second := -1, -1
	for k, i := range order {
		for _, j := range order[k+1:] {
			if pins[j].X-pins[i].X > tol {
				break
			}
			if geom.Dist(pins[i], pins[j]) > tol {
				continue
			}
			if lo, hi := min(i, j), max(i, j); second < 0 || hi < second || hi == second && lo < first {
				first, second = lo, hi
			}
		}
	}
	if second < 0 {
		return nil
	}
	return fmt.Errorf("%w: pins %d and %d at %v and %v lie %g µm apart, within %g of the net's %g µm extent",
		ErrNearPins, first, second, pins[first], pins[second], geom.Dist(pins[first], pins[second]), nearTolerance, max(box.Width(), box.Height()))
}

func finite(x float64) bool {
	return x == x && x < 1e308 && x > -1e308
}

// Generator produces random nets with pins drawn uniformly from a square
// layout region, matching the paper's experimental setup ("pin locations
// were randomly chosen from a uniform distribution in a square layout
// region", Section 4; region area 10^2 mm^2 per Table 1).
type Generator struct {
	// Side is the layout square's side length in µm (default 10,000 µm = 10 mm).
	Side float64
	// Rng is the random source; use rand.New(rand.NewSource(seed)) for
	// reproducible experiment suites.
	Rng *rand.Rand
}

// DefaultSide is the layout region side length in µm implied by the paper's
// 10^2 mm^2 layout area.
const DefaultSide = 10000.0

// NewGenerator returns a Generator over the paper's 10mm × 10mm region
// seeded deterministically with the given seed.
func NewGenerator(seed int64) *Generator {
	return &Generator{Side: DefaultSide, Rng: rand.New(rand.NewSource(seed))}
}

// Generate returns a random net with numPins pins (1 source + numPins-1
// sinks). Pins are redrawn on an exact collision; two pins within
// Validate's near-coincidence tolerance (10⁻⁹ of the extent) would need
// two uniform draws to fall some 10⁻⁵ µm apart in a 10 mm square, which
// none of the seeds used in this repository does.
func (g *Generator) Generate(numPins int) (*Net, error) {
	if numPins < 2 {
		return nil, ErrNonPositiveSize
	}
	side := g.Side
	if side <= 0 {
		return nil, ErrNegativeRegion
	}
	used := make(map[geom.Point]bool, numPins)
	pins := make([]geom.Point, 0, numPins)
	for len(pins) < numPins {
		p := geom.Point{
			X: g.Rng.Float64() * side,
			Y: g.Rng.Float64() * side,
		}
		if used[p] {
			continue
		}
		used[p] = true
		pins = append(pins, p)
	}
	return &Net{Pins: pins}, nil
}

// GenerateBatch returns count independent random nets of the given size.
func (g *Generator) GenerateBatch(count, numPins int) ([]*Net, error) {
	nets := make([]*Net, 0, count)
	for i := 0; i < count; i++ {
		n, err := g.Generate(numPins)
		if err != nil {
			return nil, err
		}
		n.Name = fmt.Sprintf("rand-%dpin-%03d", numPins, i)
		nets = append(nets, n)
	}
	return nets, nil
}

// MarshalJSON / UnmarshalJSON use the natural struct encoding; they exist on
// the package API via encoding/json directly. WriteJSON and ReadJSON are
// stream helpers.

// WriteJSON writes the net as indented JSON.
func (n *Net) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(n)
}

// ReadJSON parses a net from JSON and validates it.
func ReadJSON(r io.Reader) (*Net, error) {
	var n Net
	if err := json.NewDecoder(r).Decode(&n); err != nil {
		return nil, fmt.Errorf("netlist: decoding JSON: %w", err)
	}
	if err := n.Validate(); err != nil {
		return nil, err
	}
	return &n, nil
}

// WriteText writes the net in a simple line-oriented format:
//
//	# optional comment lines
//	net <name>
//	pin <x> <y>      (first pin is the source)
//
// The format is intended for hand-written test fixtures.
func (n *Net) WriteText(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if n.Name != "" {
		fmt.Fprintf(bw, "net %s\n", n.Name)
	}
	for _, p := range n.Pins {
		fmt.Fprintf(bw, "pin %g %g\n", p.X, p.Y)
	}
	return bw.Flush()
}

// ReadText parses the line-oriented net format written by WriteText.
func ReadText(r io.Reader) (*Net, error) {
	n := &Net{}
	sc := bufio.NewScanner(r)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Fields(text)
		switch fields[0] {
		case "net":
			if len(fields) < 2 {
				return nil, fmt.Errorf("netlist: line %d: net directive requires a name", line)
			}
			n.Name = fields[1]
		case "pin":
			if len(fields) != 3 {
				return nil, fmt.Errorf("netlist: line %d: pin directive requires x and y", line)
			}
			x, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				return nil, fmt.Errorf("netlist: line %d: bad x coordinate: %w", line, err)
			}
			y, err := strconv.ParseFloat(fields[2], 64)
			if err != nil {
				return nil, fmt.Errorf("netlist: line %d: bad y coordinate: %w", line, err)
			}
			n.Pins = append(n.Pins, geom.Point{X: x, Y: y})
		default:
			return nil, fmt.Errorf("netlist: line %d: unknown directive %q", line, fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("netlist: reading: %w", err)
	}
	if err := n.Validate(); err != nil {
		return nil, err
	}
	return n, nil
}
