module ddprof

go 1.24
