// Package repro is a from-scratch Go reproduction of "VStore: A Data Store
// for Analytics on Large Videos" (Xu, Botelho, Lin; EuroSys 2019).
//
// The system lives under internal/ (configuration engine in internal/core,
// substrates alongside it), the operational CLI and evaluation harness under
// cmd/, and the benchmark under benchmark/. See README.md for an overview.
// The benchmarks in bench_test.go regenerate each table and figure of the
// paper's evaluation.
package repro
