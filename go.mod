module vscc

go 1.23
