include Hashtbl.Make (struct
  type t = int

  let equal (a : int) b = a = b

  let hash k =
    let h = k lsr 16 in
    let h = (h lxor (h lsr 32)) * 0x3C79AC492BA7B653 in
    let h = (h lxor (h lsr 29)) * 0x1C69B3F74AC4AE35 in
    (k lxor h lxor (h lsr 32)) land max_int
end)
