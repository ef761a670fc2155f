package distkm

import (
	"kmeansll"
	"kmeansll/internal/lloyd"
)

// Model packages a distributed fit's outcome (Coordinator.Fit or
// Coordinator.ResumeFit output) as a servable kmeansll.Model carrying the
// training statistics, for the kmserved registry and the kmcoord CLI alike.
func Model(res lloyd.Result, stats Stats) (*kmeansll.Model, error) {
	rows := make([][]float64, res.Centers.Rows)
	for i := range rows {
		rows[i] = res.Centers.Row(i)
	}
	model, err := kmeansll.NewModel(rows)
	if err != nil {
		return nil, err
	}
	model.Cost = res.Cost
	model.SeedCost = stats.SeedCost
	model.Iters = res.Iters
	model.Converged = res.Converged
	model.Assign = make([]int, len(res.Assign))
	for i, a := range res.Assign {
		model.Assign[i] = int(a)
	}
	return model, nil
}
