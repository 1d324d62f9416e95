// Aggregator TU for the header fixtures in
// tests/analysis/fixtures/src/: compiling this file (plus the fixture
// .cc files listed in tests/CMakeLists.txt) keeps every fixture real
// C++ against the repo's actual headers, so the analyzer's self-test
// inputs can't silently rot. Never linked into anything that runs.

#include "common/layering_helper.h"
#include "common/layering_neg.h"
#include "common/layering_pos.h"
#include "dht/dep.h"
#include "dht/trans_pos.h"
#include "obs/bad_reach.h"
#include "sketch/leaf.h"
