package conformance

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/exec"
)

// classFamilyNames are the six machine-class prefixes a class filter may
// name to select every sub-type at once.
var classFamilyNames = []string{"IUP", "IAP", "IMP", "ISP", "DMP", "USP"}

// FilterCells returns the matrix cells whose kernel and class match the
// filters, in matrix order. An empty kernel filter keeps every kernel; an
// empty class filter keeps every class. Class entries may be exact column
// names ("IMP-III") or family prefixes ("IMP" = all sixteen sub-types).
// Unknown names are an error, so a typo cannot silently shrink a sweep to
// nothing.
func FilterCells(kernels, classes []string) ([]Cell, error) {
	wantKernel, err := filterSet("kernel", kernels, KernelNames(), nil)
	if err != nil {
		return nil, err
	}
	wantClass, err := filterSet("class", classes, ClassNames(), classFamilyNames)
	if err != nil {
		return nil, err
	}
	var out []Cell
	for _, c := range Matrix() {
		if wantKernel != nil && !wantKernel[c.Kernel] {
			continue
		}
		if wantClass != nil && !wantClass[c.Class] && !wantClass[classFamily(c.Class)] {
			continue
		}
		out = append(out, c)
	}
	return out, nil
}

// cellKey names one (kernel, class) pair of the matrix vocabulary.
type cellKey struct{ kernel, class string }

// cellIndex maps every (kernel, class) pair of the vocabulary to its
// matrix cell, nil for an architecturally unrunnable hole. It is built
// once, on first use.
var cellIndex = sync.OnceValue(func() map[cellKey]*Cell {
	idx := map[cellKey]*Cell{}
	for _, k := range KernelNames() {
		for _, cl := range ClassNames() {
			idx[cellKey{k, cl}] = nil
		}
	}
	for i := range matrix {
		c := &matrix[i]
		idx[cellKey{c.Kernel, c.Class}] = c
	}
	return idx
})

// LookupCell returns the matrix cell that runs kernel on class, and whether
// there is one: false for a class that architecturally cannot run the
// kernel. Exact names are looked up in an index built once. Anything else
// goes through FilterCells, so an unknown name gets its error and a class
// family prefix selects the family's first cell.
func LookupCell(kernel, class string) (Cell, bool, error) {
	if c, known := cellIndex()[cellKey{kernel, class}]; known {
		if c == nil {
			return Cell{}, false, nil
		}
		return *c, true, nil
	}
	cells, err := FilterCells([]string{kernel}, []string{class})
	if err != nil || len(cells) == 0 {
		return Cell{}, false, err
	}
	return cells[0], true, nil
}

// filterSet validates filter entries against the legal vocabulary (plus
// optional family prefixes) and returns the membership set, nil when the
// filter is empty (= keep everything).
func filterSet(what string, filter, legal, families []string) (map[string]bool, error) {
	if len(filter) == 0 {
		return nil, nil
	}
	ok := map[string]bool{}
	for _, name := range legal {
		ok[name] = true
	}
	for _, name := range families {
		ok[name] = true
	}
	want := map[string]bool{}
	for _, name := range filter {
		if !ok[name] {
			sort.Strings(legal)
			return nil, fmt.Errorf("conformance: unknown %s %q (known: %s)", what, name, strings.Join(legal, ", "))
		}
		want[name] = true
	}
	return want, nil
}

// classFamily maps a class column name to its family prefix ("IMP-XIV" ->
// "IMP", "IUP" -> "IUP").
func classFamily(class string) string {
	if i := strings.IndexByte(class, '-'); i >= 0 {
		return class[:i]
	}
	return class
}

// RunCellsParallel executes the given cells across the given number of
// workers (<= 0 means GOMAXPROCS) and reports the results in cell order
// plus whether all of them passed. Like RunMatrixParallel, every cell is
// independent and results land in input order whatever the worker count, so
// a filtered run is byte-identical to the matching slice of the full
// matrix.
func RunCellsParallel(ctx context.Context, cells []Cell, p Params, workers int) ([]CellResult, bool) {
	batch := exec.Map(ctx, workers, cells, func(ctx context.Context, c Cell) (CellResult, error) {
		return Run(c, p), nil
	})
	results := make([]CellResult, len(cells))
	allPass := true
	for i, r := range batch {
		if r.Err != nil {
			// Cancellation or a panic inside the cell: report it in-place so
			// the result list stays fully populated.
			results[i] = CellResult{Kernel: cells[i].Kernel, Class: cells[i].Class, Err: r.Err.Error()}
		} else {
			results[i] = r.Value
		}
		allPass = allPass && results[i].Pass
	}
	return results, allPass
}
