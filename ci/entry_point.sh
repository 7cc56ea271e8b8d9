#!/usr/bin/env bash
# Checks of the installed `anth` entry point, one per line: run after `pip install .`,
# with `anth` on PATH. set -e stops at the first failing line; there is no pipefail,
# so a pipeline is judged by its last command (`sweep 20000 | head -n 1` checks only
# its stderr). Scratch files (err.txt, out.txt, quick.txt, verify.txt, sweep.csv)
# are written in the repository root, where .gitignore lists them.
set -e
trap 'echo "ci/entry_point.sh: check at line $LINENO failed" >&2' ERR
cd "$(dirname "$0")/.."

# Commands, goldens, budgets and exit codes
anth expand 19
anth sweep 200 --format csv --jobs 2 > /dev/null
anth trace 54 --golden goldens/trace54.txt > /dev/null
anth trace 61 --golden goldens/trace61.txt > /dev/null
anth verify 54
anth sweep 20000 2>err.txt | head -n 1 > /dev/null
test ! -s err.txt
anth approx 19 --steps 2000 --out /dev/null
anth approx 1000000000000000000000000000000000000000003 --steps 3 > /dev/null
anth approx 19 --steps 6 --format json > /dev/null
anth verify 61 > /dev/null
timeout 30 anth verify 10000000003 > /dev/null
anth expand "(3+sqrt(7))/-2" --format json > /dev/null
anth expand "sqrt(7/3)" --format csv > /dev/null
anth pell 10000000000003 --negative-pell --format json > /dev/null
(set +e; ANTH_MAX_STEPS=2 anth pell 54 2>/dev/null; test $? -eq 3)
(set +e; ANTH_MAX_STEPS=2 anth sweep 60 --jobs 2 2>err.txt; test $? -eq 3)
grep -qx 'error: step limit exhausted: sqrt(7): no state repeated within 2 steps' err.txt
(set +e; anth expand 19 --out "" >out.txt 2>err.txt; test $? -eq 2)
test ! -s out.txt
test "$(wc -l < err.txt)" -eq 1
(set +e; anth sweep 50 --format csv --out /dev/full 2>err.txt; test $? -eq 2)
test "$(wc -l < err.txt)" -eq 1
(ulimit -v 300000 && timeout 60 anth verify 10000000000003 > verify.txt)
test "$(grep -c ': ok$' verify.txt)" -eq 9
grep -qx 'check convergent quality: ok' verify.txt
for n in 2 3 200000089; do
  anth verify "$n" > verify.txt
  test "$(grep -c ': ok$' verify.txt)" -eq 9
done
for j in 1 2; do
  anth sweep 100000 --format csv --jobs "$j" 2>err.txt | md5sum | grep -q '^655d311b23492d4ae852dc23a17a80d4 ' && printf '%s\n' '99684 non-squares <= 100000, 0 palindrome failures' | cmp - err.txt || { echo "sweep 100000 --jobs $j: csv md5 or summary changed"; exit 1; }
done
for j in 1 2; do
  anth sweep 100000 --format csv --jobs "$j" --out sweep.csv >out.txt 2>err.txt && test ! -s out.txt && md5sum sweep.csv | grep -q '^655d311b23492d4ae852dc23a17a80d4 ' && printf '%s\n' '99684 non-squares <= 100000, 0 palindrome failures' | cmp - err.txt || { echo "sweep 100000 --jobs $j --out: csv md5 or summary changed"; exit 1; }
done

# A surd whose normal form is past the digit limit
P=$(python -c 'print("7" * 2500)')
Q=$(python -c 'print("3" * 2499 + "1")')
(set +e; ANTH_MAX_STEPS=1 anth expand "sqrt($P/$Q)" > /dev/null 2>err.txt; test $? -eq 3)
test "$(wc -l < err.txt)" -eq 1
grep -q '^error: step limit exhausted: ' err.txt

# Top-level parser fallback
(set +e; anth expand 19 --bogus 2>err.txt; test $? -eq 2)
grep -q '^usage: anth \[-h\]' err.txt
anth expand --help > /dev/null
anth expand 19 --format json > quick.txt
anth expand 19 --format=json | cmp - quick.txt
anth expand 19 --form json | cmp - quick.txt
(set +e; anth expand 19 --format xml 2>err.txt; test $? -eq 2)
grep -q "^anth expand: error: argument --format: invalid choice: 'xml'" err.txt
(set +e; anth trace -4 2>err.txt; test $? -eq 2)
grep -qx 'error: trace needs a non-square N >= 2, got -4' err.txt
anth expand 19 > quick.txt
anth expand -- 19 | cmp - quick.txt
anth pell 13 --negative-pell --format json > quick.txt
anth pell 13 --neg --format json | cmp - quick.txt
anth sweep 10 --jobs 2 --format csv > quick.txt
anth sweep 10 --jobs=2 --format csv | cmp - quick.txt
