#!/usr/bin/env bash
# Re-run each table in results/ from its own header: the first line names
# its subcommand and the # key=value lines are its options (--config).
set -euo pipefail
cd "$(dirname "$0")/.."
export PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH}
# one BLAS thread: eig-scan's eigenvalues move in the 11th digit with the
# thread count, and the committed tables must not depend on the core count
export OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1

for table in results/*.csv; do
    read -r _ _ command < "$table"  # "# qcf1d <command>"
    echo "+ qcf1d $command --config $table --out $table"
    python3 -m qcf1d.cli "$command" --config "$table" --out "$table"
done

echo "all experiment tables written to results/"
