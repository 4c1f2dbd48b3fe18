package taxonomy

import "fmt"

// Granularity is the grain of the basic building block of a class: coarse
// blocks that are committed to being an IP or a DP, or fine blocks (LUTs)
// that can assume either role upon reconfiguration.
type Granularity int

const (
	// GrainIPDP is Skillicorn's original granularity: the building blocks
	// are whole instruction/data processors and memories.
	GrainIPDP Granularity = iota
	// GrainLUT is the fine granularity of universal-flow machines, whose
	// blocks (gates, LUTs, CLBs) are finer than an IP or DP.
	GrainLUT
)

// String returns the granularity label used in Table I.
func (g Granularity) String() string {
	switch g {
	case GrainIPDP:
		return "IP/DP"
	case GrainLUT:
		return "LUTs"
	default:
		return fmt.Sprintf("Granularity(%d)", int(g))
	}
}

// Class is one row of the extended taxonomy's Table I: a block-count and
// switch-kind combination, together with its hierarchical name and whether
// the combination is physically implementable.
type Class struct {
	// Index is the 1-based serial number of the row in Table I (1..47).
	Index int
	// Grain is the building-block granularity (IP/DP for classes 1-46,
	// LUTs for the universal-flow class 47).
	Grain Granularity
	// IPs and DPs are the block counts of instruction and data processors.
	IPs, DPs Count
	// Links holds the switch kind at each of the five connection sites.
	Links Links
	// Name is the hierarchical class name; the zero Name with
	// Implementable == false belongs to the unnamed NI classes 11-14.
	Name Name
	// Implementable is false for the classes the paper marks NI: more than
	// one IP driving a single DP is "not possible in a real world system".
	Implementable bool
}

// String returns the class name, or "NI" for unimplementable classes,
// matching the Comments column of Table I.
func (c Class) String() string {
	if !c.Implementable {
		return "NI"
	}
	return c.Name.String()
}

// Cell renders the Table I cell for connection site s, e.g. "1-n", "nxn",
// "none" or "vxv".
func (c Class) Cell(s Site) string {
	return c.Links.At(s).Cell(c.endpoints(s))
}

// endpoints returns the count symbols of the left and right endpoints of
// site s. Skillicorn pairs each processor with its own memory, so the IM
// count mirrors the IP count and the DM count mirrors the DP count.
func (c Class) endpoints(s Site) (left, right Count) {
	switch s {
	case SiteIPIP:
		return c.IPs, c.IPs
	case SiteIPDP:
		return c.IPs, c.DPs
	case SiteIPIM:
		return c.IPs, c.IPs
	case SiteDPDM:
		return c.DPs, c.DPs
	case SiteDPDP:
		return c.DPs, c.DPs
	default:
		panic(fmt.Sprintf("taxonomy: invalid site %d", int(s)))
	}
}

// subtypeBit describes which switch choice at a site contributes to the
// roman sub-type index. For the DP-DP and IP-IP sites the choice is between
// none and a crossbar; for the other sites it is between a direct switch and
// a crossbar.
func subtypeBit(l Link) int {
	if l.Switched() {
		return 1
	}
	return 0
}

// SubtypeFromLinks computes the 1-based roman sub-type index of a multi- or
// spatial-processor class from its switch kinds, using the bit order the
// paper's Table I enumerates: IP-DP is the most significant choice, then
// IP-IM, then DP-DM, then DP-DP. IMP-I is therefore (direct, direct,
// direct, none) and IMP-XVI is (x, x, x, x); array processors use only the
// DP-DM and DP-DP bits, giving IAP-I..IV; data-flow multi-processors use
// the same two bits, giving DMP-I..IV.
func SubtypeFromLinks(proc ProcessingType, ls Links) int {
	switch proc {
	case ArrayProcessor:
		return 2*subtypeBit(ls[SiteDPDM]) + subtypeBit(ls[SiteDPDP]) + 1
	case MultiProcessor, SpatialProcessor:
		return 8*subtypeBit(ls[SiteIPDP]) + 4*subtypeBit(ls[SiteIPIM]) +
			2*subtypeBit(ls[SiteDPDM]) + subtypeBit(ls[SiteDPDP]) + 1
	default:
		return 0
	}
}

// dataflowSubtype computes the DMP sub-type from the two data-side sites.
func dataflowSubtype(ls Links) int {
	return 2*subtypeBit(ls[SiteDPDM]) + subtypeBit(ls[SiteDPDP]) + 1
}

// Table generates the paper's Table I: all 47 classes in row order, derived
// from the enumeration rules rather than transcribed. The slice is freshly
// allocated on each call; callers may modify it freely.
func Table() []Class {
	classes := make([]Class, 0, 47)
	idx := 0
	add := func(c Class) {
		idx++
		c.Index = idx
		classes = append(classes, c)
	}

	// Data Flow -> Single Processor: one DP wired to its DM.
	add(Class{
		Grain: GrainIPDP, IPs: CountZero, DPs: CountOne,
		Links:         Links{SiteDPDM: LinkDirect},
		Name:          Name{Machine: DataFlow, Proc: UniProcessor},
		Implementable: true,
	})

	// Data Flow -> Multi Processors: DP-DM {-,x} x DP-DP {none,x}.
	for _, dpdm := range []Link{LinkDirect, LinkCrossbar} {
		for _, dpdp := range []Link{LinkNone, LinkCrossbar} {
			ls := Links{SiteDPDM: dpdm, SiteDPDP: dpdp}
			add(Class{
				Grain: GrainIPDP, IPs: CountZero, DPs: CountN,
				Links:         ls,
				Name:          Name{Machine: DataFlow, Proc: MultiProcessor, Sub: dataflowSubtype(ls)},
				Implementable: true,
			})
		}
	}

	// Instruction Flow -> Single Processor.
	add(Class{
		Grain: GrainIPDP, IPs: CountOne, DPs: CountOne,
		Links:         Links{SiteIPDP: LinkDirect, SiteIPIM: LinkDirect, SiteDPDM: LinkDirect},
		Name:          Name{Machine: InstructionFlow, Proc: UniProcessor},
		Implementable: true,
	})

	// Instruction Flow -> Array Processor: 1 IP broadcasts to n DPs.
	for _, dpdm := range []Link{LinkDirect, LinkCrossbar} {
		for _, dpdp := range []Link{LinkNone, LinkCrossbar} {
			ls := Links{SiteIPDP: LinkDirect, SiteIPIM: LinkDirect, SiteDPDM: dpdm, SiteDPDP: dpdp}
			add(Class{
				Grain: GrainIPDP, IPs: CountOne, DPs: CountN,
				Links:         ls,
				Name:          Name{Machine: InstructionFlow, Proc: ArrayProcessor, Sub: SubtypeFromLinks(ArrayProcessor, ls)},
				Implementable: true,
			})
		}
	}

	// n IPs driving 1 DP: rows 11-14, not implementable and hence unnamed.
	for _, ipip := range []Link{LinkNone, LinkCrossbar} {
		for _, ipim := range []Link{LinkDirect, LinkCrossbar} {
			add(Class{
				Grain: GrainIPDP, IPs: CountN, DPs: CountOne,
				Links: Links{
					SiteIPIP: ipip, SiteIPDP: LinkDirect,
					SiteIPIM: ipim, SiteDPDM: LinkDirect,
				},
				Implementable: false,
			})
		}
	}

	// Instruction Flow -> Multi Processor (rows 15-30) and the paper's new
	// Spatial Processing classes (rows 31-46): the same 16 switch
	// combinations, without and with the IP-IP crossbar.
	for _, spatial := range []bool{false, true} {
		ipip := LinkNone
		proc := MultiProcessor
		if spatial {
			ipip = LinkCrossbar
			proc = SpatialProcessor
		}
		for _, ipdp := range []Link{LinkDirect, LinkCrossbar} {
			for _, ipim := range []Link{LinkDirect, LinkCrossbar} {
				for _, dpdm := range []Link{LinkDirect, LinkCrossbar} {
					for _, dpdp := range []Link{LinkNone, LinkCrossbar} {
						ls := Links{
							SiteIPIP: ipip, SiteIPDP: ipdp, SiteIPIM: ipim,
							SiteDPDM: dpdm, SiteDPDP: dpdp,
						}
						add(Class{
							Grain: GrainIPDP, IPs: CountN, DPs: CountN,
							Links:         ls,
							Name:          Name{Machine: InstructionFlow, Proc: proc, Sub: SubtypeFromLinks(proc, ls)},
							Implementable: true,
						})
					}
				}
			}
		}
	}

	// Universal Flow -> Spatial Computing: the LUT-grain USP class.
	add(Class{
		Grain: GrainLUT, IPs: CountVar, DPs: CountVar,
		Links: Links{
			SiteIPIP: LinkVariable, SiteIPDP: LinkVariable, SiteIPIM: LinkVariable,
			SiteDPDM: LinkVariable, SiteDPDP: LinkVariable,
		},
		Name:          Name{Machine: UniversalFlow, Proc: SpatialProcessor},
		Implementable: true,
	})

	return classes
}

// table is Table generated once, for the read-only lookups below.
var table = Table()

// Lookup finds the class with the given name in the generated table.
func Lookup(name Name) (Class, error) {
	if err := name.validate(); err != nil {
		return Class{}, err
	}
	for _, c := range table {
		if c.Implementable && c.Name == name {
			return c, nil
		}
	}
	return Class{}, fmt.Errorf("taxonomy: class %s not found in Table I", name)
}

// LookupString parses a class name such as "IMP-XIV" and finds its class.
func LookupString(s string) (Class, error) {
	name, err := ParseName(s)
	if err != nil {
		return Class{}, err
	}
	return Lookup(name)
}

// ByIndex returns the Table I row with the given 1-based serial number.
func ByIndex(i int) (Class, error) {
	if i < 1 || i > 47 {
		return Class{}, fmt.Errorf("taxonomy: Table I has rows 1..47, no row %d", i)
	}
	return table[i-1], nil
}

// Require returns an error unless c is Table I's own row at c.Index and of
// machine type m and processing type p: the check each sharded simulator's
// constructor runs on the class it is built from, so a zero or hand-edited
// Class is rejected. It allocates nothing when c passes.
func (c Class) Require(m MachineType, p ProcessingType) error {
	if row, err := ByIndex(c.Index); err != nil || c != row {
		return fmt.Errorf("class %s (index %d) is not a Table I row", c, c.Index)
	}
	if !c.Implementable || c.Name.Machine != m || c.Name.Proc != p {
		return fmt.Errorf("class %s (index %d) is not of type %s", c, c.Index, Name{Machine: m, Proc: p})
	}
	return nil
}
