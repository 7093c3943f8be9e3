// SVG Gantt export — publication-ready schedule figures.
//
// One lane per core plus a memory lane; each task gets a deterministic
// color from its id (golden-angle hue walk). The memory lane shows the busy
// union; gaps there are the common idle time the paper maximizes.
#pragma once

#include <string>

#include "sched/schedule.hpp"

namespace sdem {

struct SvgOptions {
  bool show_memory = true;
  std::string title;      ///< optional header text
};

/// Render `sched` as a standalone SVG document.
std::string render_svg(const Schedule& sched, const SvgOptions& opts = {});

}  // namespace sdem
