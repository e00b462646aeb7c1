#!/bin/sh
# Non-positive sizes and iteration counts are flag errors, not library
# panics: each case must exit 1 (util::fatal) with a message naming its
# flag, never 134 (SIGABRT from a library panic). predict and recommend
# load a real model first, so the case reaches the code that used to
# abort.
#
# Usage: cli_rejects_nonpositive_sizes.sh <ceer> <tests/data dir> <work dir>
ceer=$1
profiles=$2/eval_fixture_profiles.csv
work=$3
model=$work/nonpositive_model.txt
err=$work/nonpositive_err.txt
"$ceer" train --profiles "$profiles" --out "$model" > /dev/null 2>&1 ||
    exit 1

failed=0
# check <flag> <ceer arguments...>
check() {
    flag=$1
    shift
    "$ceer" "$@" > /dev/null 2> "$err"
    status=$?
    if [ "$status" -ne 1 ] || ! grep -q -- "flag --$flag " "$err"; then
        echo "ceer $*: exit $status, expected 1 naming --$flag:"
        cat "$err"
        failed=1
    fi
}
check gpus predict --ceer-model "$model" --gpus 0
check gpus predict --ceer-model "$model" --gpus -2
check samples predict --ceer-model "$model" --samples 0
check batch predict --ceer-model "$model" --batch 0
check samples recommend --ceer-model "$model" --samples 0
check samples recommend --ceer-model "$model" --samples -5
check batch recommend --ceer-model "$model" --batch 0
check batch summary --batch 0
check batch dot --batch 0
check batch profile --batch 0 --models alexnet --out "$work/nonpositive.csv"
check iters profile --iters 0 --models alexnet --out "$work/nonpositive.csv"
check profile-iters recommend --auto-train --profile-iters 0
check batch evaluate --profiles "$profiles" --batch 0 \
    --out "$work/nonpositive_eval.csv"
check samples evaluate --profiles "$profiles" --samples 0 \
    --out "$work/nonpositive_eval.csv"
check eval-iters evaluate --profiles "$profiles" --eval-iters 0 \
    --out "$work/nonpositive_eval.csv"
exit $failed
