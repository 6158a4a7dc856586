/**
 * @file
 * Include-graph extraction, SCC detection, the layer map, and DOT
 * rendering. Everything is deterministic: nodes are sorted, edges are
 * emitted in (from, line) order, and Tarjan's algorithm visits roots in
 * sorted order so component numbering is machine-independent.
 */
#include <algorithm>
#include <map>
#include <set>
#include <sstream>

#include "graph.h"

namespace caba {
namespace lint {

namespace {

bool
startsWith(const std::string &s, const char *prefix)
{
    return s.rfind(prefix, 0) == 0;
}

/** dirname of a '/'-separated repo-relative path ("" for top level). */
std::string
dirOf(const std::string &path)
{
    const std::size_t slash = path.rfind('/');
    return slash == std::string::npos ? std::string()
                                      : path.substr(0, slash);
}

/** Lexically normalizes @p path: resolves "." and ".." segments. */
std::string
normalize(const std::string &path)
{
    std::vector<std::string> parts;
    std::string cur;
    for (std::size_t i = 0; i <= path.size(); ++i) {
        if (i == path.size() || path[i] == '/') {
            if (cur == "..") {
                if (!parts.empty())
                    parts.pop_back();
            } else if (!cur.empty() && cur != ".") {
                parts.push_back(cur);
            }
            cur.clear();
        } else {
            cur += path[i];
        }
    }
    std::string out;
    for (const std::string &p : parts) {
        if (!out.empty())
            out += '/';
        out += p;
    }
    return out;
}

/** Matches `#include "..."` (arbitrary space around '#'); returns the
 *  quoted spelling or "" when the line is not a quoted include. */
std::string
quotedInclude(const std::string &line)
{
    std::size_t i = 0;
    while (i < line.size() && (line[i] == ' ' || line[i] == '\t'))
        ++i;
    if (i >= line.size() || line[i] != '#')
        return std::string();
    ++i;
    while (i < line.size() && (line[i] == ' ' || line[i] == '\t'))
        ++i;
    if (line.compare(i, 7, "include") != 0)
        return std::string();
    i += 7;
    while (i < line.size() && (line[i] == ' ' || line[i] == '\t'))
        ++i;
    if (i >= line.size() || line[i] != '"')
        return std::string();
    const std::size_t close = line.find('"', i + 1);
    if (close == std::string::npos)
        return std::string();
    return line.substr(i + 1, close - i - 1);
}

} // namespace

IncludeGraph
buildIncludeGraph(const std::vector<SourceFile> &files)
{
    IncludeGraph g;
    g.nodes.reserve(files.size());
    for (const SourceFile &f : files)
        g.nodes.push_back(f.path);
    std::sort(g.nodes.begin(), g.nodes.end());
    const std::set<std::string> node_set(g.nodes.begin(), g.nodes.end());

    for (const SourceFile &f : files) {
        int line_no = 0;
        std::istringstream is(f.text);
        std::string line;
        while (std::getline(is, line)) {
            ++line_no;
            const std::string inc = quotedInclude(line);
            if (inc.empty())
                continue;
            IncludeEdge e;
            e.from = f.path;
            e.line = line_no;
            e.include = inc;
            // Resolution candidates, in preprocessor-like order:
            // relative to the including file, then the src/ include
            // root, then the repo root.
            const std::string candidates[] = {
                normalize(dirOf(f.path) + "/" + inc),
                "src/" + inc,
                inc,
            };
            for (const std::string &cand : candidates) {
                if (node_set.count(cand) != 0) {
                    e.to = cand;
                    break;
                }
            }
            g.edges.push_back(std::move(e));
        }
    }
    std::sort(g.edges.begin(), g.edges.end(),
              [](const IncludeEdge &a, const IncludeEdge &b) {
                  if (a.from != b.from)
                      return a.from < b.from;
                  if (a.line != b.line)
                      return a.line < b.line;
                  return a.include < b.include;
              });
    return g;
}

int
layerOf(const std::string &path)
{
    // bench/, tools/, tests/ and examples/ sit at the top and may
    // include anything below.
    if (startsWith(path, "bench/") || startsWith(path, "tools/") ||
        startsWith(path, "tests/") || startsWith(path, "examples/"))
        return 5;
    if (!startsWith(path, "src/"))
        return -1;
    const std::string rest = path.substr(4);
    const std::string dir = rest.substr(0, rest.find('/'));
    // The normative layer map — keep in sync with DESIGN.md §14.
    static const std::map<std::string, int> kLayers = {
        {"common", 0},
        {"isa", 1}, {"compress", 1}, {"energy", 1},
        {"mem", 2}, {"workloads", 2},
        {"sim", 3}, {"gpu", 3}, {"caba", 3},
        {"harness", 4},
    };
    const auto it = kLayers.find(dir);
    return it == kLayers.end() ? -2 : it->second;
}

std::string
layerName(const std::string &path)
{
    std::string dir;
    if (startsWith(path, "src/")) {
        const std::string rest = path.substr(4);
        dir = rest.substr(0, rest.find('/'));
    } else {
        dir = path.substr(0, path.find('/'));
    }
    return dir + "/" + std::to_string(layerOf(path));
}

void
ruleIncludeCycle(const IncludeGraph &graph, std::vector<Finding> &out)
{
    // Adjacency over src/ nodes only (resolved edges both ends in src/).
    std::vector<std::string> nodes;
    for (const std::string &n : graph.nodes)
        if (startsWith(n, "src/"))
            nodes.push_back(n);
    std::map<std::string, int> id;
    for (std::size_t i = 0; i < nodes.size(); ++i)
        id.emplace(nodes[i], static_cast<int>(i));
    std::vector<std::vector<int>> adj(nodes.size());
    for (const IncludeEdge &e : graph.edges) {
        if (e.to.empty())
            continue;
        const auto a = id.find(e.from);
        const auto b = id.find(e.to);
        if (a != id.end() && b != id.end())
            adj[static_cast<std::size_t>(a->second)].push_back(b->second);
    }

    // Iterative Tarjan, roots visited in sorted-node order.
    const int n = static_cast<int>(nodes.size());
    std::vector<int> index(static_cast<std::size_t>(n), -1);
    std::vector<int> low(static_cast<std::size_t>(n), 0);
    std::vector<bool> on_stack(static_cast<std::size_t>(n), false);
    std::vector<int> stack;
    std::vector<std::vector<int>> sccs;
    int next_index = 0;

    struct Frame
    {
        int v;
        std::size_t child = 0;
    };
    for (int root = 0; root < n; ++root) {
        if (index[static_cast<std::size_t>(root)] != -1)
            continue;
        std::vector<Frame> frames;
        frames.push_back({root});
        while (!frames.empty()) {
            Frame &f = frames.back();
            const std::size_t v = static_cast<std::size_t>(f.v);
            if (f.child == 0) {
                index[v] = low[v] = next_index++;
                stack.push_back(f.v);
                on_stack[v] = true;
            }
            bool descended = false;
            while (f.child < adj[v].size()) {
                const int w = adj[v][f.child++];
                const std::size_t wi = static_cast<std::size_t>(w);
                if (index[wi] == -1) {
                    frames.push_back({w});
                    descended = true;
                    break;
                }
                if (on_stack[wi])
                    low[v] = std::min(low[v], index[wi]);
            }
            if (descended)
                continue;
            if (low[v] == index[v]) {
                std::vector<int> scc;
                int w;
                do {
                    w = stack.back();
                    stack.pop_back();
                    on_stack[static_cast<std::size_t>(w)] = false;
                    scc.push_back(w);
                } while (w != f.v);
                sccs.push_back(std::move(scc));
            }
            const int low_v = low[v];
            frames.pop_back();
            if (!frames.empty()) {
                const std::size_t p =
                    static_cast<std::size_t>(frames.back().v);
                low[p] = std::min(low[p], low_v);
            }
        }
    }

    // Self-includes are 1-node cycles Tarjan reports as trivial SCCs.
    std::set<int> self_loop;
    for (int v = 0; v < n; ++v) {
        const std::size_t vi = static_cast<std::size_t>(v);
        for (int w : adj[vi])
            if (w == v)
                self_loop.insert(v);
    }

    std::vector<Finding> found;
    for (const std::vector<int> &scc : sccs) {
        if (scc.size() < 2 &&
            self_loop.count(scc.front()) == 0)
            continue;
        std::vector<std::string> members;
        for (int v : scc)
            members.push_back(nodes[static_cast<std::size_t>(v)]);
        std::sort(members.begin(), members.end());
        const std::string &anchor = members.front();
        // Anchor line: the first include from the anchor into the SCC.
        const std::set<std::string> in_scc(members.begin(), members.end());
        int line = 1;
        for (const IncludeEdge &e : graph.edges) {
            if (e.from == anchor && in_scc.count(e.to) != 0) {
                line = e.line;
                break;
            }
        }
        std::string chain;
        for (const std::string &m : members) {
            if (!chain.empty())
                chain += " -> ";
            chain += m;
        }
        found.push_back(
            {"include-cycle", anchor, line,
             "include cycle among " + std::to_string(members.size()) +
                 " file(s): " + chain +
                 " — break the cycle with an interface header or a "
                 "forward declaration"});
    }
    std::sort(found.begin(), found.end(),
              [](const Finding &a, const Finding &b) {
                  return a.file < b.file;
              });
    for (Finding &f : found)
        out.push_back(std::move(f));
}

void
ruleLayering(const IncludeGraph &graph, std::vector<Finding> &out)
{
    std::set<std::string> unmapped_reported;
    for (const std::string &n : graph.nodes) {
        if (layerOf(n) != -2)
            continue;
        const std::string rest = n.substr(4);
        const std::string dir = rest.substr(0, rest.find('/'));
        if (!unmapped_reported.insert(dir).second)
            continue;
        out.push_back(
            {"layering", n, 1,
             "src/" + dir + "/ is not in the layer map — the map is the "
             "normative architecture contract; add the subsystem to "
             "tools/lint/graph.cc and DESIGN.md §14"});
    }
    for (const IncludeEdge &e : graph.edges) {
        if (e.to.empty())
            continue;
        const int from = layerOf(e.from);
        const int to = layerOf(e.to);
        if (from < 0 || to < 0)
            continue; // unmapped dirs are reported above
        if (from < to) {
            out.push_back(
                {"layering", e.from, e.line,
                 "layering violation: " + layerName(e.from) +
                     " includes \"" + e.include + "\" (" +
                     layerName(e.to) +
                     ") — includes may point sideways or down the layer "
                     "map, never up"});
        }
    }
}

std::string
toDot(const IncludeGraph &graph)
{
    // Cluster nodes by top-level directory (src/<sub> counts as the
    // subsystem) so the rendering mirrors the layer map.
    std::map<std::string, std::vector<std::string>> clusters;
    for (const std::string &n : graph.nodes) {
        std::string dir = n.substr(0, n.find('/'));
        if (dir == "src") {
            const std::string rest = n.substr(4);
            dir = "src/" + rest.substr(0, rest.find('/'));
        }
        clusters[dir].push_back(n);
    }
    std::ostringstream os;
    os << "digraph caba_includes {\n"
       << "  rankdir=BT;\n"
       << "  node [shape=box, fontsize=9];\n";
    int ci = 0;
    for (const auto &[dir, members] : clusters) {
        os << "  subgraph cluster_" << ci++ << " {\n"
           << "    label=\"" << dir << "\";\n";
        for (const std::string &m : members)
            os << "    \"" << m << "\";\n";
        os << "  }\n";
    }
    for (const IncludeEdge &e : graph.edges) {
        if (e.to.empty())
            continue;
        os << "  \"" << e.from << "\" -> \"" << e.to << "\"";
        const int from = layerOf(e.from);
        const int to = layerOf(e.to);
        if (from >= 0 && to >= 0 && from < to)
            os << " [color=red, penwidth=2]";
        os << ";\n";
    }
    os << "}\n";
    return os.str();
}

} // namespace lint
} // namespace caba
