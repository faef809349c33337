package main

import (
	"fmt"
	"math"

	"aanoc/internal/obs"
	"aanoc/internal/paperdata"
)

// paperError states the simulator's error against the paper's Tables
// I-III beside its speed: the mean absolute difference, in percentage
// points, between each design's utilization (resp. all-packet latency)
// normalised to the [4] / [4]+PFS column of its row and the same ratio
// from internal/paperdata, together with Table III's improvement of
// GSS+SAGM+STI over GSS+SAGM. rows are the 78 reports in table order; no
// rows (a workload without reference data) is zero error.
func paperError(rows []*obs.Report) (util, lat float64, err error) {
	if len(rows) == 0 {
		return 0, 0, nil
	}
	if len(rows) != tablePoints {
		return 0, 0, fmt.Errorf("paper error: %d rows, want %d", len(rows), tablePoints)
	}
	const ref = 1 // the [4] / [4]+PFS column
	n := 0
	for t, entries := range [][]paperdata.Entry{paperdata.TableI, paperdata.TableII} {
		for i, e := range entries {
			sim := rows[t*36+i*4 : t*36+i*4+4]
			if sim[0].App != e.App || sim[0].Gen != e.Gen {
				return 0, 0, fmt.Errorf("paper error: row %d is %s/DDR%d, reference is %s/DDR%d",
					t*36+i*4, sim[0].App, sim[0].Gen, e.App, e.Gen)
			}
			for d := range e.Cells {
				if d == ref {
					continue
				}
				util += math.Abs(sim[d].Utilization/sim[ref].Utilization - e.Cells[d].Util/e.Cells[ref].Util)
				lat += math.Abs(sim[d].Latency.All.Mean/sim[ref].Latency.All.Mean - e.Cells[d].LatAll/e.Cells[ref].LatAll)
				n++
			}
		}
	}
	for i, e := range paperdata.TableIII {
		sagm, sti := rows[72+2*i], rows[72+2*i+1]
		if sagm.App != e.App {
			return 0, 0, fmt.Errorf("paper error: Table III row %d is %s, reference is %s", i, sagm.App, e.App)
		}
		util += math.Abs((sti.Utilization/sagm.Utilization - 1) - e.UtilImp)
		lat += math.Abs((1 - sti.Latency.All.Mean/sagm.Latency.All.Mean) - e.LatAllImp)
		n++
	}
	return 100 * util / float64(n), 100 * lat / float64(n), nil
}
