package par

import "testing"

func TestSetBudgetClampsToOne(t *testing.T) {
	defer SetBudget(Budget())
	SetBudget(-3)
	if b := Budget(); b != 1 {
		t.Fatalf("budget %d after SetBudget(-3)", b)
	}
}
