package synth

// CheckPlanAgainstReference lets the external tests, which may import
// internal/scenario, run the plan/reference equivalence check on compiled
// scenarios.
var CheckPlanAgainstReference = checkPlanAgainstReference
