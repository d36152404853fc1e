// The benchmark is a module of its own so the repository's build, vet and
// test commands never see it; the replace line lets it import the packages
// under test (module paths below repro/ may import repro/internal/...).
module repro/bench

go 1.24

require repro v0.0.0

replace repro => ../
