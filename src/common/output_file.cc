#include "common/output_file.h"

#include <filesystem>

namespace caba {

std::FILE *
openForWriting(const std::string &path)
{
    const std::filesystem::path out(path);
    std::error_code ec;
    if (out.has_parent_path())
        std::filesystem::create_directories(out.parent_path(), ec);
    return std::fopen(path.c_str(), "w");
}

bool
writeFile(const std::string &path, const std::string &text)
{
    std::FILE *f = openForWriting(path);
    if (f == nullptr)
        return false;
    // fwrite may only buffer; a full device shows up at the close.
    const bool written =
        std::fwrite(text.data(), 1, text.size(), f) == text.size();
    return std::fclose(f) == 0 && written;
}

} // namespace caba
