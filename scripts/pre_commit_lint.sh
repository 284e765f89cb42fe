#!/usr/bin/env sh
# pre-commit hook: run ckptfi-lint over the files this commit touches.
#
# Install:
#   ln -s ../../scripts/pre_commit_lint.sh .git/hooks/pre-commit
#
# The whole tree is still indexed (so interprocedural chains through
# unchanged files stay visible) but only findings in changed files are
# reported. A full-repo pass takes about a tenth of a second.
#
# See docs/LINT.md for the rules and the `ckptfi-lint: allow(<rule>) reason`
# suppression syntax.
set -eu

root="$(git rev-parse --show-toplevel)"
lint=""
for candidate in \
    "$root/build/tools/ckptfi_lint" \
    "$root/build-asan/tools/ckptfi_lint"; do
  if [ -x "$candidate" ]; then lint="$candidate"; break; fi
done
if [ -z "$lint" ]; then
  echo "pre_commit_lint: no built ckptfi_lint found; run" >&2
  echo "  cmake --build build -j --target ckptfi_lint" >&2
  echo "(skipping lint — NOT a pass)" >&2
  exit 0
fi

exec "$lint" --root="$root" --changed-only src bench examples tests tools
