// Package paperdata records the published numbers of the paper's
// evaluation section (Tables I-V and the Fig. 8 endpoints) as typed data.
// The reproduction uses them in two ways: the report generator
// (aanoc report) prints paper-vs-measured comparisons for
// EXPERIMENTS.md, and shape tests assert that the reproduction preserves
// the orderings and approximate ratios the paper claims — without
// expecting absolute cycle counts to match (our substrate is a calibrated
// simulator, not the authors' RTL testbed).
package paperdata

import "aanoc/internal/area"

// Cell is one (application, clock) measurement of a design in Table I or
// II: memory utilization, average memory latency of all packets, and
// average latency of the demand packets (cycles).
type Cell struct {
	Util   float64
	LatAll float64
	LatDem float64
}

// Entry is one application/clock row across the four designs of a table.
type Entry struct {
	App      string // bluray, sdtv, ddtv
	Gen      int    // DDR generation
	ClockMHz int
	Cells    [4]Cell // per design, in table column order
}

// TableIDesigns lists Table I's column order.
var TableIDesigns = [4]string{"CONV", "[4]", "GSS", "GSS+SAGM"}

// TableI is the paper's Table I (no priority memory requests).
var TableI = []Entry{
	{"bluray", 1, 133, [4]Cell{{0.755, 121, 111}, {0.763, 81, 63}, {0.771, 74, 65}, {0.774, 69, 60}}},
	{"bluray", 2, 266, [4]Cell{{0.651, 157, 153}, {0.691, 109, 91}, {0.717, 101, 89}, {0.761, 86, 74}}},
	{"bluray", 3, 533, [4]Cell{{0.505, 216, 216}, {0.592, 134, 113}, {0.600, 140, 124}, {0.619, 131, 113}}},
	{"sdtv", 1, 166, [4]Cell{{0.717, 144, 140}, {0.737, 101, 80}, {0.766, 86, 74}, {0.776, 71, 61}}},
	{"sdtv", 2, 333, [4]Cell{{0.625, 173, 171}, {0.673, 120, 96}, {0.715, 108, 94}, {0.756, 91, 77}}},
	{"sdtv", 3, 667, [4]Cell{{0.463, 244, 248}, {0.554, 154, 126}, {0.577, 143, 127}, {0.596, 140, 119}}},
	{"ddtv", 1, 200, [4]Cell{{0.696, 154, 128}, {0.707, 104, 73}, {0.708, 89, 67}, {0.712, 80, 57}}},
	{"ddtv", 2, 400, [4]Cell{{0.555, 246, 196}, {0.627, 149, 107}, {0.627, 141, 104}, {0.682, 115, 85}}},
	{"ddtv", 3, 800, [4]Cell{{0.426, 364, 266}, {0.559, 191, 133}, {0.531, 195, 144}, {0.547, 184, 128}}},
}

// TableIIDesigns lists Table II's column order.
var TableIIDesigns = [4]string{"CONV+PFS", "[4]+PFS", "GSS", "GSS+SAGM"}

// TableII is the paper's Table II (demand requests served as priority
// packets; the third column is the priority-packet latency).
var TableII = []Entry{
	{"bluray", 1, 133, [4]Cell{{0.729, 141, 97}, {0.742, 106, 59}, {0.770, 77, 42}, {0.774, 72, 38}}},
	{"bluray", 2, 266, [4]Cell{{0.612, 176, 123}, {0.621, 134, 73}, {0.699, 112, 72}, {0.745, 96, 60}}},
	{"bluray", 3, 533, [4]Cell{{0.454, 248, 179}, {0.517, 166, 88}, {0.561, 151, 98}, {0.608, 138, 90}}},
	{"sdtv", 1, 166, [4]Cell{{0.676, 163, 105}, {0.699, 124, 64}, {0.755, 96, 57}, {0.779, 76, 41}}},
	{"sdtv", 2, 333, [4]Cell{{0.580, 192, 128}, {0.613, 143, 74}, {0.684, 116, 72}, {0.738, 107, 66}}},
	{"sdtv", 3, 667, [4]Cell{{0.387, 309, 213}, {0.489, 182, 94}, {0.534, 158, 98}, {0.559, 151, 95}}},
	{"ddtv", 1, 200, [4]Cell{{0.655, 183, 131}, {0.675, 124, 62}, {0.700, 103, 55}, {0.709, 80, 36}}},
	{"ddtv", 2, 400, [4]Cell{{0.521, 280, 156}, {0.577, 178, 81}, {0.608, 153, 78}, {0.657, 127, 68}}},
	{"ddtv", 3, 800, [4]Cell{{0.405, 389, 198}, {0.481, 252, 104}, {0.518, 210, 101}, {0.530, 207, 99}}},
}

// TableIIIRow is one line of the paper's Table III: GSS+SAGM+STI measured
// values and the reported improvement over GSS+SAGM.
type TableIIIRow struct {
	App       string
	ClockMHz  int
	Util      float64
	UtilImp   float64 // fractional improvement over GSS+SAGM
	LatAll    float64
	LatAllImp float64
	LatPri    float64
	LatPriImp float64
}

// TableIII is the paper's Table III.
var TableIII = []TableIIIRow{
	{"bluray", 533, 0.674, 0.109, 119, 0.040, 79, 0.122},
	{"sdtv", 667, 0.590, 0.055, 140, 0.073, 87, 0.084},
	{"ddtv", 800, 0.593, 0.119, 161, 0.222, 81, 0.182},
}

// Fig8Endpoint captures the paper's quoted start (no GSS routers) and
// three-router values of the Fig. 8 curves.
type Fig8Endpoint struct {
	App      string
	Gen      int
	ClockMHz int

	Util0, Util3     float64 // memory utilization at k=0 and k=3
	LatAll0, LatAll3 float64 // latency of all packets
	LatPri0, LatPri3 float64 // latency of priority packets
}

// Fig8 lists the paper's quoted Fig. 8 endpoints.
var Fig8 = []Fig8Endpoint{
	{"sdtv", 1, 200, 0.69, 0.77, 134, 88, 92, 54},
	{"bluray", 2, 333, 0.56, 0.73, 157, 98, 122, 63},
	{"ddtv", 3, 667, 0.38, 0.54, 332, 191, 146, 95},
}

// Table4 is the paper's Table IV (gate counts at 400 MHz), in the rows
// the area model reproduces.
var Table4 = []area.Table4Row{
	{Design: "CONV", FlowController: 3310, Router: 56683, MemorySubsystem: 489898, NoC3x3: 966250},
	{Design: "[4]", FlowController: 6732, Router: 62949, MemorySubsystem: 158874, NoC3x3: 661645},
	{Design: "GSS+SAGM+STI", FlowController: 6136, Router: 62721, MemorySubsystem: 149245, NoC3x3: 639481},
}

// Table5Row is one line of the paper's Table V (average power).
type Table5Row struct {
	App      string
	ClockMHz int
	Design   string
	PowerMW  float64
}

// Table5 is the paper's Table V.
var Table5 = []Table5Row{
	{"sdtv", 200, "CONV", 179.0},
	{"sdtv", 200, "[4]", 116.0},
	{"sdtv", 200, "GSS+SAGM+STI", 115.5},
	{"bluray", 400, "CONV", 351.6},
	{"bluray", 400, "[4]", 227.8},
	{"bluray", 400, "GSS+SAGM+STI", 226.8},
	{"ddtv", 800, "CONV", 961.9},
	{"ddtv", 800, "[4]", 726.0},
	{"ddtv", 800, "GSS+SAGM+STI", 724.1},
}

// AverageRatios returns, for a table's entries, each design column's
// average metric divided by the reference column's average — the paper's
// "Ratio" summary rows.
func AverageRatios(entries []Entry, refCol int) (util, latAll, latDem [4]float64) {
	var sums [4]Cell
	for _, e := range entries {
		for i, c := range e.Cells {
			sums[i].Util += c.Util
			sums[i].LatAll += c.LatAll
			sums[i].LatDem += c.LatDem
		}
	}
	for i := range sums {
		util[i] = sums[i].Util / sums[refCol].Util
		latAll[i] = sums[i].LatAll / sums[refCol].LatAll
		latDem[i] = sums[i].LatDem / sums[refCol].LatDem
	}
	return
}
