// Umbrella header for the serving subsystem: request types, bounded
// admission queue, micro-batcher, the one compiled-plan compiler, SLO
// accounting, the inline defense plane, and the engine itself.
// See DESIGN.md §11–12, §14 and README "Serving".
#pragma once

#include "serve/batcher.hpp"
#include "serve/compiled.hpp"
#include "serve/defense_plane.hpp"
#include "serve/engine.hpp"
#include "serve/queue.hpp"
#include "serve/request.hpp"
#include "serve/slo.hpp"
