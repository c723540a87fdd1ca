package planner

// DisableAnalyticPrune turns off p's analytic screen, so every frontier
// candidate is Monte-Carlo estimated.
func DisableAnalyticPrune(p *Planner) { p.disableAnalyticPrune = true }

// DisableFrontierDedupe turns off p's canonical-allocation memo sharing.
func DisableFrontierDedupe(p *Planner) { p.disableFrontierDedupe = true }
