// The benchmark is a module of its own, so the repository's build and
// test commands leave it alone and it is built only by its own command.
// Its path sits under the parent module's, which is what lets it import
// mocha/internal/...; the replace points at the checkout it lives in.
module mocha/benchmark

go 1.22

require mocha v0.0.0

replace mocha => ../
