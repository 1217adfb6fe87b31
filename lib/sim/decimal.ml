let digit n = Char.unsafe_chr (48 + (n mod 10))

let rec length n = if n < 10 then 1 else 1 + length (n / 10)

let blit n b ~pos ~width =
  let v = ref n in
  for i = pos + width - 1 downto pos do
    Bytes.unsafe_set b i (digit !v);
    v := !v / 10
  done

let rec add buf n =
  if n >= 10 then add buf (n / 10);
  Buffer.add_char buf (digit n)
