package taxonomy

import (
	"strings"
	"testing"
)

// paperTableI transcribes the paper's Table I verbatim, one row per line:
// index|granularity|IPs|DPs|IP-IP|IP-DP|IP-IM|DP-DM|DP-DP|comment.
// TestTableI_MatchesPaper checks that the *generated* table reproduces it.
var paperTableI = []string{
	"1|IP/DP|0|1|none|none|none|1-1|none|DUP",
	"2|IP/DP|0|n|none|none|none|n-n|none|DMP-I",
	"3|IP/DP|0|n|none|none|none|n-n|nxn|DMP-II",
	"4|IP/DP|0|n|none|none|none|nxn|none|DMP-III",
	"5|IP/DP|0|n|none|none|none|nxn|nxn|DMP-IV",
	"6|IP/DP|1|1|none|1-1|1-1|1-1|none|IUP",
	"7|IP/DP|1|n|none|1-n|1-1|n-n|none|IAP-I",
	"8|IP/DP|1|n|none|1-n|1-1|n-n|nxn|IAP-II",
	"9|IP/DP|1|n|none|1-n|1-1|nxn|none|IAP-III",
	"10|IP/DP|1|n|none|1-n|1-1|nxn|nxn|IAP-IV",
	"11|IP/DP|n|1|none|n-1|n-n|1-1|none|NI",
	"12|IP/DP|n|1|none|n-1|nxn|1-1|none|NI",
	"13|IP/DP|n|1|nxn|n-1|n-n|1-1|none|NI",
	"14|IP/DP|n|1|nxn|n-1|nxn|1-1|none|NI",
	"15|IP/DP|n|n|none|n-n|n-n|n-n|none|IMP-I",
	"16|IP/DP|n|n|none|n-n|n-n|n-n|nxn|IMP-II",
	"17|IP/DP|n|n|none|n-n|n-n|nxn|none|IMP-III",
	"18|IP/DP|n|n|none|n-n|n-n|nxn|nxn|IMP-IV",
	"19|IP/DP|n|n|none|n-n|nxn|n-n|none|IMP-V",
	"20|IP/DP|n|n|none|n-n|nxn|n-n|nxn|IMP-VI",
	"21|IP/DP|n|n|none|n-n|nxn|nxn|none|IMP-VII",
	"22|IP/DP|n|n|none|n-n|nxn|nxn|nxn|IMP-VIII",
	"23|IP/DP|n|n|none|nxn|n-n|n-n|none|IMP-IX",
	"24|IP/DP|n|n|none|nxn|n-n|n-n|nxn|IMP-X",
	"25|IP/DP|n|n|none|nxn|n-n|nxn|none|IMP-XI",
	"26|IP/DP|n|n|none|nxn|n-n|nxn|nxn|IMP-XII",
	"27|IP/DP|n|n|none|nxn|nxn|n-n|none|IMP-XIII",
	"28|IP/DP|n|n|none|nxn|nxn|n-n|nxn|IMP-XIV",
	"29|IP/DP|n|n|none|nxn|nxn|nxn|none|IMP-XV",
	"30|IP/DP|n|n|none|nxn|nxn|nxn|nxn|IMP-XVI",
	"31|IP/DP|n|n|nxn|n-n|n-n|n-n|none|ISP-I",
	"32|IP/DP|n|n|nxn|n-n|n-n|n-n|nxn|ISP-II",
	"33|IP/DP|n|n|nxn|n-n|n-n|nxn|none|ISP-III",
	"34|IP/DP|n|n|nxn|n-n|n-n|nxn|nxn|ISP-IV",
	"35|IP/DP|n|n|nxn|n-n|nxn|n-n|none|ISP-V",
	"36|IP/DP|n|n|nxn|n-n|nxn|n-n|nxn|ISP-VI",
	"37|IP/DP|n|n|nxn|n-n|nxn|nxn|none|ISP-VII",
	"38|IP/DP|n|n|nxn|n-n|nxn|nxn|nxn|ISP-VIII",
	"39|IP/DP|n|n|nxn|nxn|n-n|n-n|none|ISP-IX",
	"40|IP/DP|n|n|nxn|nxn|n-n|n-n|nxn|ISP-X",
	"41|IP/DP|n|n|nxn|nxn|n-n|nxn|none|ISP-XI",
	"42|IP/DP|n|n|nxn|nxn|n-n|nxn|nxn|ISP-XII",
	"43|IP/DP|n|n|nxn|nxn|nxn|n-n|none|ISP-XIII",
	"44|IP/DP|n|n|nxn|nxn|nxn|n-n|nxn|ISP-XIV",
	"45|IP/DP|n|n|nxn|nxn|nxn|nxn|none|ISP-XV",
	"46|IP/DP|n|n|nxn|nxn|nxn|nxn|nxn|ISP-XVI",
	"47|LUTs|v|v|vxv|vxv|vxv|vxv|vxv|USP",
}

// rowString renders a generated class in the golden format above.
func rowString(c Class) string {
	fields := []string{
		itoa(c.Index), c.Grain.String(), c.IPs.String(), c.DPs.String(),
	}
	for _, s := range Sites() {
		fields = append(fields, c.Cell(s))
	}
	fields = append(fields, c.String())
	return strings.Join(fields, "|")
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	neg := v < 0
	if neg {
		v = -v
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	if neg {
		i--
		buf[i] = '-'
	}
	return string(buf[i:])
}

func TestTableI_MatchesPaper(t *testing.T) {
	got := Table()
	if len(got) != len(paperTableI) {
		t.Fatalf("Table() produced %d classes, paper has %d", len(got), len(paperTableI))
	}
	for i, want := range paperTableI {
		if gotRow := rowString(got[i]); gotRow != want {
			t.Errorf("row %d:\n  generated %q\n  paper     %q", i+1, gotRow, want)
		}
	}
}

func TestTableI_FreshSliceEachCall(t *testing.T) {
	a := Table()
	a[0].Index = 999
	b := Table()
	if b[0].Index != 1 {
		t.Fatalf("Table() returned shared state: mutation leaked (index=%d)", b[0].Index)
	}
}

func TestTableI_IndexesAreSerial(t *testing.T) {
	for i, c := range Table() {
		if c.Index != i+1 {
			t.Errorf("class at position %d has index %d", i, c.Index)
		}
	}
}

func TestTableI_NICount(t *testing.T) {
	ni := 0
	for _, c := range Table() {
		if !c.Implementable {
			ni++
			if c.IPs != CountN || c.DPs != CountOne {
				t.Errorf("NI class %d has counts IPs=%s DPs=%s, want n and 1", c.Index, c.IPs, c.DPs)
			}
		}
	}
	if ni != 4 {
		t.Errorf("got %d NI classes, paper has 4 (rows 11-14)", ni)
	}
}

func TestTableI_NewClassesCount(t *testing.T) {
	// The paper introduces 19 new classes beyond Skillicorn: the 4 NI rows
	// 11-14, the 16 ISP rows 31-46 minus the overlap... the paper counts 19
	// new classes; our reading: rows 13-14 (2) + rows 31-46 (16) + USP (1).
	newClasses := 0
	for _, c := range Table() {
		isNewNI := !c.Implementable && c.Links[SiteIPIP].Switched()
		isISP := c.Implementable && c.Name.Machine == InstructionFlow && c.Name.Proc == SpatialProcessor
		isUSP := c.Name.Machine == UniversalFlow
		if isNewNI || isISP || isUSP {
			newClasses++
		}
	}
	if newClasses != 19 {
		t.Errorf("got %d new classes, paper says 19", newClasses)
	}
}

func TestLookup_AllNamedClasses(t *testing.T) {
	for _, c := range Table() {
		if !c.Implementable {
			continue
		}
		got, err := Lookup(c.Name)
		if err != nil {
			t.Errorf("Lookup(%s): %v", c.Name, err)
			continue
		}
		if got.Index != c.Index {
			t.Errorf("Lookup(%s) returned row %d, want %d", c.Name, got.Index, c.Index)
		}
	}
}

func TestLookupString(t *testing.T) {
	cases := []struct {
		in    string
		index int
	}{
		{"DUP", 1}, {"DMP-I", 2}, {"DMP-IV", 5}, {"IUP", 6},
		{"IAP-II", 8}, {"IMP-I", 15}, {"IMP-XVI", 30},
		{"ISP-IV", 34}, {"ISP-XVI", 46}, {"USP", 47},
	}
	for _, tc := range cases {
		c, err := LookupString(tc.in)
		if err != nil {
			t.Errorf("LookupString(%q): %v", tc.in, err)
			continue
		}
		if c.Index != tc.index {
			t.Errorf("LookupString(%q) = row %d, want %d", tc.in, c.Index, tc.index)
		}
	}
}

func TestLookupString_Rejects(t *testing.T) {
	for _, in := range []string{"", "XUP", "IMP", "IMP-XVII", "DMP-V", "IAP-0", "IUP-I", "USP-I", "IZP-I", "IMP-IIII"} {
		if _, err := LookupString(in); err == nil {
			t.Errorf("LookupString(%q) succeeded, want error", in)
		}
	}
}

func TestByIndex(t *testing.T) {
	c, err := ByIndex(30)
	if err != nil {
		t.Fatalf("ByIndex(30): %v", err)
	}
	if c.String() != "IMP-XVI" {
		t.Errorf("row 30 = %s, want IMP-XVI", c)
	}
	for _, bad := range []int{0, -1, 48, 1000} {
		if _, err := ByIndex(bad); err == nil {
			t.Errorf("ByIndex(%d) succeeded, want error", bad)
		}
	}
}

// TestRequireZeroAllocs: the check every simulator constructor runs costs
// no allocation when the class passes.
func TestRequireZeroAllocs(t *testing.T) {
	c, err := LookupString("IMP-XIV")
	if err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		if err := c.Require(InstructionFlow, MultiProcessor); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("Require allocated %v times per call, want 0", allocs)
	}
}

func TestGranularityString(t *testing.T) {
	if GrainIPDP.String() != "IP/DP" || GrainLUT.String() != "LUTs" {
		t.Errorf("granularity labels wrong: %q, %q", GrainIPDP, GrainLUT)
	}
	if got := Granularity(99).String(); !strings.Contains(got, "99") {
		t.Errorf("out-of-range granularity prints %q", got)
	}
}

func TestSubtypeFromLinks_RoundTrip(t *testing.T) {
	// Every IMP/ISP/IAP class's sub-type must be recomputable from its links.
	for _, c := range Table() {
		if !c.Implementable || c.Name.Sub == 0 {
			continue
		}
		var got int
		switch c.Name.Proc {
		case ArrayProcessor, MultiProcessor, SpatialProcessor:
			got = SubtypeFromLinks(c.Name.Proc, c.Links)
		case UniProcessor:
			continue
		}
		if c.Name.Machine == DataFlow {
			got = dataflowSubtype(c.Links)
		}
		if got != c.Name.Sub {
			t.Errorf("class %s: SubtypeFromLinks = %d, want %d", c, got, c.Name.Sub)
		}
	}
}

func TestSubtypeFromLinks_UniProcessorIsZero(t *testing.T) {
	if got := SubtypeFromLinks(UniProcessor, Links{}); got != 0 {
		t.Errorf("uni-processor sub-type = %d, want 0", got)
	}
}

func TestClassCell_PanicsOnInvalidSite(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Cell(invalid site) did not panic")
		}
	}()
	c := Table()[0]
	c.Cell(Site(99))
}
