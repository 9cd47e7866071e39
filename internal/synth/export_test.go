package synth

// CheckPlanAgainstReference lets the external tests, which may import
// internal/scenario, run the plan/reference equivalence check on compiled
// scenarios.
var CheckPlanAgainstReference = checkPlanAgainstReference

// MaxShiftWeights lets the external tests read the compiled shift weights
// of a scenario's model.
var MaxShiftWeights = maxShiftWeights
