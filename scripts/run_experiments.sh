#!/usr/bin/env bash
# Standard experiment sweeps; tables land in results/.
set -euo pipefail
cd "$(dirname "$0")/.."
export PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH}
# one BLAS thread: eig-scan's eigenvalues move in the 11th digit with the
# thread count, and the committed tables must not depend on the core count
export OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1
mkdir -p results

run() { echo "+ qcf1d $*"; python3 -m qcf1d.cli "$@"; }

run patch-test --N-list 16,32,64 --K-all --F-list 0.9,0.95,1.0,1.05,1.1 \
    --out results/patch_test.csv

run coercivity --phiF 1 --phi2F -0.2 --N-list 256,512,1024,2048 --K-ratio 0.25 \
    --out results/coercivity.csv

run infsup --phiF 1 --phi2F -0.2 --N-list 64,128,256,512,1024 --K-ratio 0.25 \
    --p-list 1,2,4 --out results/infsup.csv

run convergence --phiF 1 --phi2F -0.05 --N-list 16,32,64,128 --K-ratio 0.25 \
    --M-factor 4 --load cospi --out results/convergence.csv

run dump-operator --operator Eqcf --N 8 --K 2 --phiF 1 --phi2F 1 \
    --out results/eqcf_n8_k2.csv

run eig-scan --phiF 1 --phi2F -0.2 --N-list 64,128,256 --K-ratio 0.25 \
    --out results/eig_scan.csv

echo "all experiment tables written to results/"
