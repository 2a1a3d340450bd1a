package main

import (
	"encoding/json"
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/serve"
)

// r2Floor is the lowest fit R² any built model may report over any
// response; a build that returns quickly but fits badly fails here. The
// lowest seen for the standard problem over excitations 0.3–0.9 m/s² is
// about 0.42, for harvested power near 0.54 m/s², where a threshold in the
// response is more than a quadratic surface can follow.
const r2Floor = 0.3

// closeTo reports whether got matches want to within float rounding.
func closeTo(got, want float64) bool {
	return math.Abs(got-want) <= 1e-9*math.Max(1, math.Abs(want))
}

// checkBuild requires a build to end done with every R² above the floor,
// and returns its lowest R².
func checkBuild(b built) (float64, error) {
	v := b.view
	if v.State != string(serve.JobDone) {
		return 0, fmt.Errorf("build %s (%s) ended %s: %s", v.ID, v.Design, v.State, v.Error)
	}
	if len(v.R2) == 0 {
		return 0, fmt.Errorf("build %s (%s) reports no R²", v.ID, v.Design)
	}
	lo := math.Inf(1)
	for resp, r2 := range v.R2 {
		if !(r2 >= r2Floor) {
			return 0, fmt.Errorf("build %s (%s) fits %s with R² %g < %g", v.ID, v.Design, resp, r2, r2Floor)
		}
		lo = math.Min(lo, r2)
	}
	return lo, nil
}

// checkPredict recomputes a /v1/predict answer through the surfaces that
// served it.
func checkPredict(ss *core.SavedSurfaces, req *serve.PredictRequest, body []byte) error {
	var resp serve.PredictResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return fmt.Errorf("predict answer: %w", err)
	}
	points := req.Points
	if req.Point != nil {
		points = append([][]float64{req.Point}, points...)
	}
	if len(resp.Results) != len(points) {
		return fmt.Errorf("predict answered %d points, asked %d", len(resp.Results), len(points))
	}
	coded := make([][]float64, len(points))
	for i, p := range points {
		c, err := ss.EncodePoint(p)
		if err != nil {
			return err
		}
		coded[i] = c
	}
	ids := ss.Responses()
	if len(req.Responses) > 0 {
		ids = ids[:0]
		for _, r := range req.Responses {
			ids = append(ids, core.ResponseID(r))
		}
	}
	for _, id := range ids {
		want, err := ss.PredictBatch(id, coded)
		if err != nil {
			return err
		}
		for i, w := range want {
			got, ok := resp.Results[i].Values[string(id)]
			if !ok || !closeTo(got, w) {
				return fmt.Errorf("predict %s at point %d: got %v, want %v", id, i, got, w)
			}
		}
	}
	return nil
}

// checkSweep recomputes a /v1/sweep answer through the surfaces that
// served it. Requests set every factor in "at", so no default applies.
func checkSweep(ss *core.SavedSurfaces, req *serve.SweepRequest, body []byte) error {
	var resp serve.SweepResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return fmt.Errorf("sweep answer: %w", err)
	}
	if len(resp.X) != req.Points || len(resp.Y) != req.Points {
		return fmt.Errorf("sweep answered %d/%d points, asked %d", len(resp.X), len(resp.Y), req.Points)
	}
	fi := -1
	coded := make([]float64, len(ss.Factors))
	for j, f := range ss.Factors {
		coded[j] = f.Encode(req.At[f.Name])
		if f.Name == req.Factor {
			fi = j
		}
	}
	if fi < 0 {
		return fmt.Errorf("sweep factor %q unknown", req.Factor)
	}
	f := ss.Factors[fi]
	for i := 0; i < req.Points; i++ {
		x := f.Min + float64(i)/float64(req.Points-1)*(f.Max-f.Min)
		coded[fi] = f.Encode(x)
		want, err := ss.Predict(core.ResponseID(req.Response), coded)
		if err != nil {
			return err
		}
		if !closeTo(resp.X[i], x) || !closeTo(resp.Y[i], want) {
			return fmt.Errorf("sweep %s over %s point %d: got (%v, %v), want (%v, %v)",
				req.Response, req.Factor, i, resp.X[i], resp.Y[i], x, want)
		}
	}
	return nil
}

// checkValidate requires every validate row to be finite.
func checkValidate(resp serve.ValidateResponse) error {
	if len(resp.Rows) == 0 {
		return fmt.Errorf("validate returned no rows")
	}
	for _, row := range resp.Rows {
		for _, v := range []float64{row.MeanAbsErr, row.MaxAbsErr, row.PRESS, row.R2Pred} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("validate row %s is not finite: %+v", row.Response, row)
			}
		}
	}
	return nil
}
